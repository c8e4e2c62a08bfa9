//! Asserts the storage decoders size their pre-allocation by the input,
//! not by the counts read out of it: a crc-valid WAL frame claiming 2^32-1
//! entries and a bloom header claiming 2^32-1 words are rejected with
//! `Err` before the decoder has allocated even 1 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fabric_common::codec::{Decode, Decoder, Encoder};
use fabric_statedb::lsm::bloom::BloomFilter;
use fabric_statedb::lsm::crc::crc32;
use fabric_statedb::lsm::wal;

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

fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn malformed_counts_cannot_force_large_allocations() {
    // WAL: one well-framed record (the crc matches) whose payload claims
    // u32::MAX entries but holds none. It is the only frame, yet not a torn
    // tail: replay must decode it and fail.
    let mut payload = Encoder::new();
    payload.put_u64(1).put_u32(u32::MAX);
    let payload = payload.into_bytes();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let dir = std::env::temp_dir().join(format!("fabric-decode-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    std::fs::write(&path, &frame).unwrap();
    let (replayed, allocated) = allocated_by(|| wal::replay(&path));
    assert!(
        replayed.is_err(),
        "a frame claiming u32::MAX entries must not replay"
    );
    // The frame is read into memory first; that is bounded by the file.
    assert!(
        allocated < MIB,
        "WAL: {allocated} bytes allocated before Err"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Bloom filter: a self-consistent header (nbits = 64 * words) claiming
    // u32::MAX words of bits, followed by none.
    let mut header = Encoder::new();
    header
        .put_u64(64 * u32::MAX as u64)
        .put_u32(7)
        .put_u32(u32::MAX);
    let header = header.into_bytes();
    let (decoded, allocated) = allocated_by(|| BloomFilter::decode(&mut Decoder::new(&header)));
    assert!(
        decoded.is_err(),
        "a bloom header claiming u32::MAX words must not decode"
    );
    assert!(
        allocated < MIB,
        "bloom: {allocated} bytes allocated before Err"
    );
}
