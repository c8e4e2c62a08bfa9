//! Immutable sorted-run files ("SSTables") with sparse index and bloom
//! filter.
//!
//! File layout:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ entries region: DiskEntry stream, sorted by key          │
//! │ index region:  u32 count, {u32 klen, key, u64 offset}*   │
//! │ bloom region:  BloomFilter encoding                      │
//! │ footer (32B):  u64 index_off, u64 bloom_off,             │
//! │                u32 entry_count, u32 crc, u64 MAGIC       │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! The sparse index records every `interval`-th entry's key and byte
//! offset; a point read binary-searches it for the greatest indexed key ≤
//! the target, then scans at most one interval of entries. The footer crc
//! covers the footer fields so a truncated or damaged file is rejected at
//! open time.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::{Error, Key, Result};

use super::bloom::BloomFilter;
use super::crc::crc32;
use super::record::DiskEntry;

#[allow(clippy::unusual_byte_groupings)] // grouped to read "fabric code sstable"
const MAGIC: u64 = 0xFAB_0C0DE_55_7AB1E;
const FOOTER_LEN: usize = 8 + 8 + 4 + 4 + 8;

/// Build-time knobs for an SSTable.
#[derive(Debug, Clone)]
pub struct SsTableOptions {
    /// Index one entry out of every `index_interval`.
    pub index_interval: usize,
    /// Bloom-filter density.
    pub bloom_bits_per_key: usize,
}

impl Default for SsTableOptions {
    fn default() -> Self {
        SsTableOptions { index_interval: 16, bloom_bits_per_key: 10 }
    }
}

/// Writes a sorted run of entries to `path`.
///
/// `entries` must be strictly ascending by key; this is asserted because a
/// mis-sorted run would corrupt reads silently.
pub fn write_sstable(path: &Path, entries: &[DiskEntry], opts: &SsTableOptions) -> Result<()> {
    for pair in entries.windows(2) {
        if pair[0].key >= pair[1].key {
            return Err(Error::InvalidState(format!(
                "sstable entries not strictly sorted: {:?} then {:?}",
                pair[0].key, pair[1].key
            )));
        }
    }

    let mut bloom = BloomFilter::new(entries.len(), opts.bloom_bits_per_key);
    let mut body = Encoder::with_capacity(entries.len() * 48 + 1024);
    let mut index: Vec<(Key, u64)> = Vec::new();
    let interval = opts.index_interval.max(1);

    for (i, e) in entries.iter().enumerate() {
        if i % interval == 0 {
            index.push((e.key.clone(), body.len() as u64));
        }
        bloom.insert(e.key.as_bytes());
        e.encode(&mut body);
    }

    let index_off = body.len() as u64;
    body.put_u32(index.len() as u32);
    for (key, off) in &index {
        body.put_bytes(key.as_bytes());
        body.put_u64(*off);
    }
    let bloom_off = body.len() as u64;
    bloom.encode(&mut body);

    let mut footer = Encoder::with_capacity(FOOTER_LEN);
    footer.put_u64(index_off);
    footer.put_u64(bloom_off);
    footer.put_u32(entries.len() as u32);
    let crc = crc32(footer.as_slice());
    footer.put_u32(crc);
    footer.put_u64(MAGIC);

    // Write to a temp file and rename for atomicity.
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(body.as_slice())?;
        f.write_all(footer.as_slice())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// An open SSTable: footer, sparse index, and bloom filter in memory;
/// entry data read on demand.
pub struct SsTableReader {
    file: Mutex<File>,
    path: PathBuf,
    index: Vec<(Key, u64)>,
    bloom: BloomFilter,
    index_off: u64,
    entry_count: u32,
}

impl SsTableReader {
    /// Opens and verifies the SSTable at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::Corruption(format!(
                "sstable {} too short ({file_len} bytes)",
                path.display()
            )));
        }
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact(&mut footer)?;

        let mut dec = Decoder::new(&footer);
        let index_off = dec.get_u64()?;
        let bloom_off = dec.get_u64()?;
        let entry_count = dec.get_u32()?;
        let stored_crc = dec.get_u32()?;
        let magic = dec.get_u64()?;
        if magic != MAGIC {
            return Err(Error::Corruption(format!(
                "sstable {}: bad magic {magic:#x}",
                path.display()
            )));
        }
        if crc32(&footer[..20]) != stored_crc {
            return Err(Error::Corruption(format!(
                "sstable {}: footer crc mismatch",
                path.display()
            )));
        }
        let body_len = file_len - FOOTER_LEN as u64;
        if index_off > bloom_off || bloom_off > body_len {
            return Err(Error::Corruption(format!(
                "sstable {}: inconsistent offsets",
                path.display()
            )));
        }

        // Load index + bloom.
        file.seek(SeekFrom::Start(index_off))?;
        let mut meta = vec![0u8; (body_len - index_off) as usize];
        file.read_exact(&mut meta)?;
        let mut dec = Decoder::new(&meta);
        let n = dec.get_u32()? as usize;
        // An index entry is at least a key length prefix and an offset.
        let mut index = Vec::with_capacity(dec.capacity_for(n, 4 + 8));
        for _ in 0..n {
            let key = Key::new(dec.get_bytes()?.to_vec());
            let off = dec.get_u64()?;
            index.push((key, off));
        }
        let bloom = BloomFilter::decode(&mut dec)?;
        dec.finish()?;

        Ok(SsTableReader {
            file: Mutex::new(file),
            path,
            index,
            bloom,
            index_off,
            entry_count,
        })
    }

    /// Point lookup. `Ok(None)` means "this run has no entry for the key"
    /// (a tombstone is `Some(entry)` with `value: None`).
    pub fn get(&self, key: &Key) -> Result<Option<DiskEntry>> {
        if self.entry_count == 0 || !self.bloom.may_contain(key.as_bytes()) {
            return Ok(None);
        }
        // Greatest indexed key <= target.
        let slot = match self.index.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => i,
            Err(0) => return Ok(None), // target below the smallest key
            Err(i) => i - 1,
        };
        let start = self.index[slot].1;
        let end = self.index.get(slot + 1).map_or(self.index_off, |(_, off)| *off);

        let mut buf = vec![0u8; (end - start) as usize];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(start))?;
            f.read_exact(&mut buf)?;
        }
        let mut dec = Decoder::new(&buf);
        while dec.remaining() > 0 {
            let e = DiskEntry::decode(&mut dec)?;
            match e.key.cmp(key) {
                std::cmp::Ordering::Equal => return Ok(Some(e)),
                std::cmp::Ordering::Greater => return Ok(None),
                std::cmp::Ordering::Less => continue,
            }
        }
        Ok(None)
    }

    /// Reads every entry in key order (compaction input / verification).
    pub fn scan_all(&self) -> Result<Vec<DiskEntry>> {
        let mut buf = vec![0u8; self.index_off as usize];
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(0))?;
            f.read_exact(&mut buf)?;
        }
        let mut dec = Decoder::new(&buf);
        let cap = dec.capacity_for(self.entry_count as usize, DiskEntry::MIN_ENCODED_LEN);
        let mut out = Vec::with_capacity(cap);
        while dec.remaining() > 0 {
            out.push(DiskEntry::decode(&mut dec)?);
        }
        Ok(out)
    }

    /// Number of entries in the run.
    pub fn entry_count(&self) -> u32 {
        self.entry_count
    }

    /// File path of the run.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl std::fmt::Debug for SsTableReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SsTableReader({}, {} entries)",
            self.path.display(),
            self.entry_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::{Value, Version};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fabric-sst-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(n: u64) -> Vec<DiskEntry> {
        (0..n)
            .map(|i| DiskEntry {
                // Zero-pad so lexicographic order == numeric order.
                key: Key::from(format!("key-{i:08}")),
                value: if i % 7 == 3 { None } else { Some(Value::from_i64(i as i64)) },
                version: Version::new(i / 10, (i % 10) as u32),
            })
            .collect()
    }

    #[test]
    fn write_and_point_read() {
        let dir = tmpdir("point");
        let path = dir.join("t1.sst");
        let es = entries(500);
        write_sstable(&path, &es, &SsTableOptions::default()).unwrap();
        let r = SsTableReader::open(&path).unwrap();
        assert_eq!(r.entry_count(), 500);
        for e in es.iter().step_by(13) {
            let got = r.get(&e.key).unwrap().unwrap();
            assert_eq!(&got, e);
        }
        // Absent keys.
        assert!(r.get(&Key::from("zzzz")).unwrap().is_none());
        assert!(r.get(&Key::from("aaaa")).unwrap().is_none());
        assert!(r.get(&Key::from("key-00000500")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstones_are_returned() {
        let dir = tmpdir("tomb");
        let path = dir.join("t.sst");
        let es = entries(50);
        write_sstable(&path, &es, &SsTableOptions::default()).unwrap();
        let r = SsTableReader::open(&path).unwrap();
        // i=3 is a tombstone by construction.
        let got = r.get(&Key::from("key-00000003")).unwrap().unwrap();
        assert_eq!(got.value, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_all_round_trips() {
        let dir = tmpdir("scan");
        let path = dir.join("t.sst");
        let es = entries(257); // not a multiple of the index interval
        write_sstable(&path, &es, &SsTableOptions::default()).unwrap();
        let r = SsTableReader::open(&path).unwrap();
        assert_eq!(r.scan_all().unwrap(), es);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_table() {
        let dir = tmpdir("empty");
        let path = dir.join("t.sst");
        write_sstable(&path, &[], &SsTableOptions::default()).unwrap();
        let r = SsTableReader::open(&path).unwrap();
        assert_eq!(r.entry_count(), 0);
        assert!(r.get(&Key::from("any")).unwrap().is_none());
        assert!(r.scan_all().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_input_rejected() {
        let dir = tmpdir("unsorted");
        let path = dir.join("t.sst");
        let mut es = entries(10);
        es.swap(2, 7);
        assert!(write_sstable(&path, &es, &SsTableOptions::default()).is_err());
        // Duplicate keys also rejected.
        let mut es = entries(5);
        es[1].key = es[0].key.clone();
        assert!(write_sstable(&path, &es, &SsTableOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_footer_rejected_at_open() {
        let dir = tmpdir("corrupt");
        let path = dir.join("t.sst");
        write_sstable(&path, &entries(20), &SsTableOptions::default()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // smash the magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(SsTableReader::open(&path), Err(Error::Corruption(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_file_rejected_at_open() {
        let dir = tmpdir("trunc");
        let path = dir.join("t.sst");
        write_sstable(&path, &entries(20), &SsTableOptions::default()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(SsTableReader::open(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dense_index_interval_one() {
        let dir = tmpdir("dense");
        let path = dir.join("t.sst");
        let es = entries(64);
        let opts = SsTableOptions { index_interval: 1, bloom_bits_per_key: 10 };
        write_sstable(&path, &es, &opts).unwrap();
        let r = SsTableReader::open(&path).unwrap();
        for e in &es {
            assert_eq!(r.get(&e.key).unwrap().unwrap(), *e);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_readers() {
        let dir = tmpdir("conc");
        let path = dir.join("t.sst");
        let es = entries(300);
        write_sstable(&path, &es, &SsTableOptions::default()).unwrap();
        let r = std::sync::Arc::new(SsTableReader::open(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                let es = es.clone();
                std::thread::spawn(move || {
                    for e in es.iter().skip(t).step_by(4) {
                        assert_eq!(r.get(&e.key).unwrap().unwrap(), *e);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
