//! In-memory indexes over heap files.
//!
//! The paper's experiments hinge on indexes: the flatness of `t_extract`
//! versus total stored rules (Figure 7) and of `t_read` versus total derived
//! predicates (Figure 9) both come from indexes on the rule-storage and
//! dictionary relations. Two kinds are provided:
//!
//! * **hash** — exact-match lookups (the default; what the testbed's
//!   generated programs use), over a directory that stores every key
//!   encoded in one byte arena, so a key costs no allocation of its own;
//! * **ordered** — a B-tree-style ordered directory that additionally
//!   serves range predicates (`WHERE a < 5`).
//!
//! Directories live in memory while the indexed records stay on pages;
//! probe counts are tracked so experiments can report logical index work.

use crate::fxhash::{self, FxHashMap};
use crate::heap::RecordId;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
enum Directory {
    Hash(HashDir),
    Ordered(BTreeMap<Vec<Value>, Vec<RecordId>>),
}

/// The record ids under one key: inline for a unique key, a vector only
/// once the key has duplicates.
#[derive(Debug, Clone)]
enum Postings {
    One(RecordId),
    Many(Vec<RecordId>),
}

impl Postings {
    fn as_slice(&self) -> &[RecordId] {
        match self {
            Postings::One(r) => std::slice::from_ref(r),
            Postings::Many(v) => v,
        }
    }

    fn push(&mut self, rid: RecordId) {
        match self {
            Postings::One(r) => *self = Postings::Many(vec![*r, rid]),
            Postings::Many(v) => v.push(rid),
        }
    }

    /// Drop every posting of `rid`; returns how many there were. An
    /// emptied list is left for the directory to delete with its entry.
    fn remove(&mut self, rid: RecordId) -> usize {
        match self {
            Postings::One(r) if *r == rid => {
                *self = Postings::Many(Vec::new());
                1
            }
            Postings::One(_) => 0,
            Postings::Many(v) => {
                let before = v.len();
                v.retain(|r| *r != rid);
                before - v.len()
            }
        }
    }
}

/// One distinct key: its encoding at `arena[off..off + len]` and its
/// postings. `hash` is kept so a moved entry can be re-pointed without
/// re-hashing its bytes.
#[derive(Debug, Clone)]
struct Entry {
    hash: u64,
    off: u32,
    len: u32,
    postings: Postings,
}

/// The entries whose keys share one 64-bit hash: almost always one.
#[derive(Debug, Clone)]
enum Slot {
    One(u32),
    Many(Vec<u32>),
}

/// Arena bytes that removed keys may leave behind before the arena is
/// compacted (and only once they are also half of it).
const COMPACT_MIN_GARBAGE: usize = 4096;

/// A hash directory with no allocation per key. Each key is encoded once
/// with [`Value::serialize_into`] into one byte arena; that encoding is
/// injective, so byte equality is value equality. Entries are dense
/// (removal swaps the last one in), so `distinct_keys` is `entries.len()`.
#[derive(Debug, Clone, Default)]
struct HashDir {
    arena: Vec<u8>,
    /// Arena bytes of removed keys, reclaimed by [`HashDir::compact`].
    garbage: usize,
    entries: Vec<Entry>,
    slots: FxHashMap<u64, Slot>,
    postings: usize,
}

thread_local! {
    /// Reused buffer for encoding probe and removal keys.
    static KEY_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Encode `vals` into this thread's key buffer and hand the bytes to `f`.
fn with_encoded<'v, R>(vals: impl Iterator<Item = &'v Value>, f: impl FnOnce(&[u8]) -> R) -> R {
    KEY_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        for v in vals {
            v.serialize_into(&mut buf);
        }
        f(&buf)
    })
}

fn key_hash(key: &[u8]) -> u64 {
    let h = fxhash::hash_bytes(key);
    #[cfg(test)]
    let h = h & tests::HASH_MASK.with(std::cell::Cell::get);
    h
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("hash index directory exceeds 4 GiB")
}

impl Entry {
    fn span(&self) -> std::ops::Range<usize> {
        let off = self.off as usize;
        off..off + self.len as usize
    }
}

impl HashDir {
    fn key_bytes(&self, e: &Entry) -> &[u8] {
        &self.arena[e.span()]
    }

    /// The entry holding the encoded `key`, if any.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let hit = |i: u32| self.key_bytes(&self.entries[i as usize]) == key;
        match self.slots.get(&hash)? {
            Slot::One(i) => hit(*i).then_some(*i as usize),
            Slot::Many(is) => is.iter().copied().find(|&i| hit(i)).map(|i| i as usize),
        }
    }

    fn lookup(&self, key: &[u8]) -> &[RecordId] {
        match self.find(key_hash(key), key) {
            Some(i) => self.entries[i].postings.as_slice(),
            None => &[],
        }
    }

    /// Register `rid` under the key `cols` of `tuple`. The key is encoded
    /// straight onto the arena's end and cut off again if it is already
    /// present.
    fn insert(&mut self, tuple: &[Value], cols: &[usize], rid: RecordId) {
        let off = self.arena.len();
        for &c in cols {
            tuple[c].serialize_into(&mut self.arena);
        }
        let hash = key_hash(&self.arena[off..]);
        self.postings += 1;
        if let Some(i) = self.find(hash, &self.arena[off..]) {
            self.arena.truncate(off);
            self.entries[i].postings.push(rid);
            return;
        }
        let i = to_u32(self.entries.len());
        let (off, end) = (to_u32(off), to_u32(self.arena.len()));
        self.entries.push(Entry {
            hash,
            off,
            len: end - off,
            postings: Postings::One(rid),
        });
        match self.slots.entry(hash) {
            MapEntry::Vacant(v) => {
                v.insert(Slot::One(i));
            }
            MapEntry::Occupied(o) => {
                let slot = o.into_mut();
                match slot {
                    Slot::One(j) => *slot = Slot::Many(vec![*j, i]),
                    Slot::Many(is) => is.push(i),
                }
            }
        }
    }

    fn remove(&mut self, key: &[u8], rid: RecordId) {
        let hash = key_hash(key);
        let Some(i) = self.find(hash, key) else {
            return;
        };
        self.postings -= self.entries[i].postings.remove(rid);
        if self.entries[i].postings.as_slice().is_empty() {
            self.remove_entry(i);
        }
    }

    /// Drop entry `i`, moving the last entry into its place.
    fn remove_entry(&mut self, i: usize) {
        let last = self.entries.len() - 1;
        let gone = self.entries.swap_remove(i);
        self.repoint(gone.hash, to_u32(i), None);
        if i != last {
            let moved = self.entries[i].hash;
            self.repoint(moved, to_u32(last), Some(to_u32(i)));
        }
        self.garbage += gone.len as usize;
        if self.garbage > COMPACT_MIN_GARBAGE && self.garbage * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// In the slot for `hash`, replace entry index `from` by `to`, or
    /// unlink it when `to` is `None`.
    fn repoint(&mut self, hash: u64, from: u32, to: Option<u32>) {
        let MapEntry::Occupied(mut o) = self.slots.entry(hash) else {
            unreachable!("every entry is linked from its hash slot");
        };
        match (o.get_mut(), to) {
            (Slot::One(_), None) => {
                o.remove();
            }
            (Slot::One(j), Some(to)) => *j = to,
            (Slot::Many(is), to) => {
                let pos = is.iter().position(|&j| j == from).expect("entry linked");
                match to {
                    Some(to) => is[pos] = to,
                    None => {
                        is.remove(pos);
                        if let [only] = is[..] {
                            *o.get_mut() = Slot::One(only);
                        }
                    }
                }
            }
        }
    }

    /// Rewrite the arena with only the live keys.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        for e in &mut self.entries {
            let off = to_u32(arena.len());
            arena.extend_from_slice(&self.arena[e.span()]);
            e.off = off;
        }
        self.arena = arena;
        self.garbage = 0;
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.garbage = 0;
        self.entries.clear();
        self.slots.clear();
        self.postings = 0;
    }
}

/// A multi-column index: exact-match lookups on a fixed key, and — for
/// ordered indexes — range scans.
///
/// The probe counter is an [`AtomicU64`] so lookups can be counted while
/// the catalog (and thus the index) is borrowed immutably during execution
/// — including from the partitioned operators' worker threads, which share
/// one `&TableIndex` and probe it concurrently.
#[derive(Debug)]
pub struct TableIndex {
    name: String,
    /// Positions of the key columns within the table schema.
    key_cols: Vec<usize>,
    directory: Directory,
    probes: AtomicU64,
}

impl Clone for TableIndex {
    fn clone(&self) -> TableIndex {
        TableIndex {
            name: self.name.clone(),
            key_cols: self.key_cols.clone(),
            directory: self.directory.clone(),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl TableIndex {
    /// A hash index (exact-match only).
    pub fn new(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        assert!(!key_cols.is_empty(), "index needs at least one key column");
        TableIndex {
            name: name.into(),
            key_cols,
            directory: Directory::Hash(HashDir::default()),
            probes: AtomicU64::new(0),
        }
    }

    /// An ordered index (exact-match and range scans).
    pub fn new_ordered(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        assert!(!key_cols.is_empty(), "index needs at least one key column");
        TableIndex {
            name: name.into(),
            key_cols,
            directory: Directory::Ordered(BTreeMap::new()),
            probes: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn is_ordered(&self) -> bool {
        matches!(self.directory, Directory::Ordered(_))
    }

    /// Register `rid` under the key of `tuple`.
    pub fn insert(&mut self, tuple: &[Value], rid: RecordId) {
        match &mut self.directory {
            Directory::Hash(d) => d.insert(tuple, &self.key_cols, rid),
            Directory::Ordered(m) => {
                let key = self.key_cols.iter().map(|&i| tuple[i].clone()).collect();
                m.entry(key).or_default().push(rid);
            }
        }
    }

    /// Remove `rid` from the posting list of `tuple`'s key.
    pub fn remove(&mut self, tuple: &[Value], rid: RecordId) {
        let key_vals = self.key_cols.iter().map(|&i| &tuple[i]);
        match &mut self.directory {
            Directory::Hash(d) => with_encoded(key_vals, |key| d.remove(key, rid)),
            Directory::Ordered(m) => {
                let key: Vec<Value> = key_vals.cloned().collect();
                if let Some(rids) = m.get_mut(&key) {
                    rids.retain(|r| *r != rid);
                    if rids.is_empty() {
                        m.remove(&key);
                    }
                }
            }
        }
    }

    /// All record ids whose key equals `key`.
    pub fn lookup(&self, key: &[Value]) -> &[RecordId] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        match &self.directory {
            Directory::Hash(d) => with_encoded(key.iter(), |k| d.lookup(k)),
            Directory::Ordered(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }

    /// All record ids whose key equals the `cols` columns of `row`, in
    /// that order — a probe with no key materialized.
    pub fn lookup_cols(&self, row: &[Value], cols: &[usize]) -> &[RecordId] {
        let vals = cols.iter().map(|&c| &row[c]);
        match &self.directory {
            Directory::Hash(d) => {
                self.probes.fetch_add(1, Ordering::Relaxed);
                with_encoded(vals, |k| d.lookup(k))
            }
            Directory::Ordered(_) => self.lookup(&vals.cloned().collect::<Vec<_>>()),
        }
    }

    /// Record ids whose key lies in the given bounds, in key order. Only
    /// meaningful for ordered indexes; a hash index returns `None`.
    pub fn range(&self, lo: Bound<Vec<Value>>, hi: Bound<Vec<Value>>) -> Option<Vec<RecordId>> {
        let Directory::Ordered(m) = &self.directory else {
            return None;
        };
        self.probes.fetch_add(1, Ordering::Relaxed);
        // An inverted range is simply empty (BTreeMap::range would panic).
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (&lo, &hi)
        {
            let empty = a > b
                || (a == b
                    && (matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))));
            if empty {
                return Some(Vec::new());
            }
        }
        Some(
            m.range((lo, hi))
                .flat_map(|(_, rids)| rids.iter().copied())
                .collect(),
        )
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.directory {
            Directory::Hash(d) => d.entries.len(),
            Directory::Ordered(m) => m.len(),
        }
    }

    /// Total postings.
    pub fn entry_count(&self) -> usize {
        match &self.directory {
            Directory::Hash(d) => d.postings,
            Directory::Ordered(m) => m.values().map(Vec::len).sum(),
        }
    }

    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Discard all entries (used when a table is truncated).
    pub fn clear(&mut self) {
        match &mut self.directory {
            Directory::Hash(d) => d.clear(),
            Directory::Ordered(m) => m.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::PageId;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// Narrows every key hash (see `key_hash`) so tests can force the
        /// collision path; all ones leaves hashes untouched.
        pub(super) static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    fn rid(page: u32, slot: u16) -> RecordId {
        RecordId {
            page: PageId(page),
            slot,
        }
    }

    #[test]
    fn insert_lookup_single_column() {
        let mut idx = TableIndex::new("i1", vec![0]);
        idx.insert(&[Value::Int(1), Value::from("a")], rid(0, 0));
        idx.insert(&[Value::Int(1), Value::from("b")], rid(0, 1));
        idx.insert(&[Value::Int(2), Value::from("c")], rid(0, 2));
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[rid(0, 0), rid(0, 1)]);
        assert_eq!(idx.lookup(&[Value::Int(2)]), &[rid(0, 2)]);
        assert!(idx.lookup(&[Value::Int(3)]).is_empty());
        assert_eq!(idx.probes(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn multi_column_key_uses_all_parts() {
        let mut idx = TableIndex::new("i2", vec![0, 1]);
        idx.insert(&[Value::Int(1), Value::from("a")], rid(0, 0));
        assert_eq!(idx.lookup(&[Value::Int(1), Value::from("a")]).len(), 1);
        assert!(idx.lookup(&[Value::Int(1), Value::from("b")]).is_empty());
    }

    #[test]
    fn key_can_skip_and_reorder_columns() {
        let mut idx = TableIndex::new("i3", vec![2, 0]);
        let tuple = [Value::Int(10), Value::from("mid"), Value::Int(30)];
        idx.insert(&tuple, rid(1, 1));
        assert_eq!(idx.lookup(&[Value::Int(30), Value::Int(10)]).len(), 1);
        assert_eq!(idx.lookup_cols(&tuple, &[2, 0]).len(), 1);
        assert!(idx.lookup_cols(&tuple, &[0, 2]).is_empty());
    }

    #[test]
    fn remove_shrinks_posting_list() {
        let mut idx = TableIndex::new("i4", vec![0]);
        let t = [Value::Int(1)];
        idx.insert(&t, rid(0, 0));
        idx.insert(&t, rid(0, 1));
        idx.remove(&t, rid(0, 0));
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[rid(0, 1)]);
        idx.remove(&t, rid(0, 1));
        assert!(idx.lookup(&[Value::Int(1)]).is_empty());
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn clear_empties_index() {
        let mut idx = TableIndex::new("i5", vec![0]);
        idx.insert(&[Value::Int(1)], rid(0, 0));
        idx.clear();
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn colliding_hashes_keep_keys_apart() {
        HASH_MASK.with(|m| m.set(0));
        let mut idx = TableIndex::new("i6", vec![0]);
        for i in 0..50 {
            idx.insert(&[Value::Int(i)], rid(0, i as u16));
        }
        for i in (0..50).step_by(2) {
            idx.remove(&[Value::Int(i)], rid(0, i as u16));
        }
        for i in 0..50 {
            let want: &[RecordId] = if i % 2 == 0 { &[] } else { &[rid(0, i as u16)] };
            assert_eq!(idx.lookup(&[Value::Int(i)]), want, "key {i}");
        }
        assert_eq!(idx.distinct_keys(), 25);
        HASH_MASK.with(|m| m.set(u64::MAX));
    }

    #[test]
    fn compaction_keeps_every_live_key() {
        let mut idx = TableIndex::new("i7", vec![0]);
        let key = |i: u16| Value::Str(format!("key-{i:05}"));
        for i in 0..2000u16 {
            idx.insert(&[key(i)], rid(1, i));
        }
        // Removing most keys leaves enough dead arena bytes to compact.
        for i in 0..1800u16 {
            idx.remove(&[key(i)], rid(1, i));
        }
        let Directory::Hash(d) = &idx.directory else {
            unreachable!()
        };
        assert!(d.garbage < d.arena.len(), "arena was never compacted");
        for i in 0..2000u16 {
            let want: &[RecordId] = if i < 1800 { &[] } else { &[rid(1, i)] };
            assert_eq!(idx.lookup(&[key(i)]), want);
        }
        assert_eq!((idx.distinct_keys(), idx.entry_count()), (200, 200));
    }

    /// A small value domain, mixing types, so keys repeat and collide.
    fn value(code: u8) -> Value {
        match code % 6 {
            0 => Value::Int(0),
            1 => Value::Int(-7),
            2 => Value::Int(1 << 40),
            3 => Value::from(""),
            4 => Value::from("a"),
            _ => Value::from("ab"),
        }
    }

    fn tuple(code: u8) -> Vec<Value> {
        vec![value(code), value(code / 6), value(code / 36)]
    }

    /// Replay `ops` on a hash index over `key_cols` and on a reference
    /// `HashMap<Vec<Value>, Vec<RecordId>>`, comparing them after every
    /// step. Each op is `(kind, tuple code, pick)`.
    fn check_against_model(key_cols: &[usize], ops: &[(u8, u8, u8)]) -> Result<(), String> {
        let mut idx = TableIndex::new("m", key_cols.to_vec());
        let mut model: HashMap<Vec<Value>, Vec<RecordId>> = HashMap::new();
        let mut live: Vec<(Vec<Value>, RecordId)> = Vec::new();
        let key_of = |t: &[Value]| key_cols.iter().map(|&c| t[c].clone()).collect::<Vec<_>>();
        let domain: Vec<(Vec<Value>, Vec<Value>)> = (0..=215u8)
            .map(|code| (tuple(code), key_of(&tuple(code))))
            .collect();
        for (step, &(kind, code, pick)) in ops.iter().enumerate() {
            match kind % 10 {
                0..=4 => {
                    let t = tuple(code);
                    let r = rid(u32::from(pick % 4), step as u16);
                    idx.insert(&t, r);
                    model.entry(key_of(&t)).or_default().push(r);
                    live.push((t, r));
                }
                5..=7 if !live.is_empty() => {
                    let (t, r) = live.swap_remove(usize::from(pick) % live.len());
                    idx.remove(&t, r);
                    let key = key_of(&t);
                    let rids = model.get_mut(&key).expect("live key");
                    rids.retain(|x| *x != r);
                    if rids.is_empty() {
                        model.remove(&key);
                    }
                }
                8 => {
                    // A copy-on-write fork: the clone must carry on alone.
                    let fork = idx.clone();
                    idx.insert(&tuple(code), rid(9, 9));
                    idx = fork;
                }
                9 if pick % 8 == 0 => {
                    idx.clear();
                    model.clear();
                    live.clear();
                }
                _ => {
                    // A removal of a key or rid that is not there.
                    idx.remove(&tuple(code), rid(7, 7));
                }
            }
            // Every key after a step is slow in debug builds: check the
            // whole domain every fourth step and at the end, the touched
            // tuple always.
            let full = step % 4 == 3 || step + 1 == ops.len();
            let touched = &domain[usize::from(code) % domain.len()];
            let keys = if full {
                &domain[..]
            } else {
                std::slice::from_ref(touched)
            };
            for (t, key) in keys {
                let want = model.get(key).map_or(&[][..], Vec::as_slice);
                if idx.lookup(key) != want || idx.lookup_cols(t, key_cols) != want {
                    return Err(format!("step {step}: key {key:?} disagrees"));
                }
            }
            let postings: usize = model.values().map(Vec::len).sum();
            if (idx.distinct_keys(), idx.entry_count()) != (model.len(), postings) {
                return Err(format!(
                    "step {step}: {} keys / {} postings, model {} / {postings}",
                    idx.distinct_keys(),
                    idx.entry_count(),
                    model.len()
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The arena directory behaves exactly like a map of owned keys,
        /// for single and permuted multi-column keys, with full hashes and
        /// with hashes narrowed to two bits (every probe meets collisions).
        #[test]
        fn hash_directory_matches_a_reference_map(
            ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
        ) {
            for mask in [u64::MAX, 0b11] {
                for cols in [&[1][..], &[2, 0][..], &[0, 1, 2][..]] {
                    HASH_MASK.with(|m| m.set(mask));
                    let outcome = check_against_model(cols, &ops);
                    HASH_MASK.with(|m| m.set(u64::MAX));
                    prop_assert!(outcome.is_ok(), "mask {mask:#x} cols {cols:?}: {outcome:?}");
                }
            }
        }
    }
}
