//! Asserts decoders size their pre-allocation by the input, not by the
//! counts read out of it: a few dozen malformed bytes that claim 2^20
//! transactions, 2^16 endorsements or 2^24 reads and writes are rejected
//! with `Err` before the decoder has allocated even 1 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fabric_common::codec::{Decode, Decoder, Encoder};
use fabric_common::rwset::ReadWriteSet;
use fabric_ledger::CommittedBlock;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MIB: u64 = 1 << 20;

/// Bytes allocated while decoding `input` as `T`, which must fail.
fn rejected_allocating<T: Decode>(what: &str, input: &[u8]) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    let result = T::decode(&mut Decoder::new(input));
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert!(result.is_err(), "{what}: truncated input must not decode");
    drop(result);
    allocated
}

/// A block header claiming `n` transactions, with nothing after it.
fn block_claiming(n: u32) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(1)
        .put_bytes(&[0; 32])
        .put_bytes(&[0; 32])
        .put_u32(n);
    enc.into_bytes()
}

/// A block whose single transaction claims `n` endorsements.
fn endorsements_claiming(n: u32) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(1)
        .put_bytes(&[0; 32])
        .put_bytes(&[0; 32])
        .put_u32(1);
    enc.put_u64(7).put_u64(0).put_u64(0).put_bytes(b"cc");
    enc.put_u32(0).put_u32(0); // empty read-write set
    enc.put_u32(n);
    enc.into_bytes()
}

#[test]
fn malformed_counts_cannot_force_large_allocations() {
    let check = |what: &str, input: Vec<u8>, allocated: fn(&str, &[u8]) -> u64| {
        assert!(input.len() < 128, "{what}: the forged input stays tiny");
        let allocated = allocated(what, &input);
        assert!(
            allocated < MIB,
            "{what}: {allocated} bytes allocated before Err"
        );
    };
    check(
        "2^20 transactions",
        block_claiming(1 << 20),
        rejected_allocating::<CommittedBlock>,
    );
    check(
        "2^16 endorsements",
        endorsements_claiming(1 << 16),
        rejected_allocating::<CommittedBlock>,
    );
    check(
        "2^24 reads",
        (1u32 << 24).to_le_bytes().to_vec(),
        rejected_allocating::<ReadWriteSet>,
    );
    let writes = [0u32.to_le_bytes(), (1u32 << 24).to_le_bytes()].concat();
    check("2^24 writes", writes, rejected_allocating::<ReadWriteSet>);
}
