//! The commit log: the kept trace as bytes.
//!
//! The §3 oracle needs the commit sequence's content — which
//! instantiation fired and what it wrote — not live `Firing`s, so a
//! [`crate::Trace`] keeps each commit as one encoded record and decodes
//! a [`Firing`] only when a reader asks for it. A record is
//!
//! ```text
//! [txn] [len] [rule << 1 | halt] [n] ([wme id] [timestamp])^n ([shape] [payload])*
//! shape   = [kind | target << 2] [class]? [attrs] ([attr] [tag] [bool]?)^attrs
//! payload = [wme id]? ([int] | [float] | [atom])*
//! ```
//!
//! * every number is an LEB128 varint: `len` (the bytes after it), rule
//!   ids (shifted by one, so [`crate::EXTERNAL_RULE`] is 0), counts, wme ids,
//!   timestamps, shape and atom indices, and ints zig-zagged;
//! * `txn` is the committing transaction's id, zig-zagged as the
//!   wrapping difference from the previous record's (the first record's
//!   from 0), so the txn column costs a byte or two a record. The
//!   parallel engine writes its lock-manager transaction; the single
//!   and static engines, which have none, and every [`crate::Trace::push`]
//!   write [`NO_TXN`];
//! * the key's first timestamp is written whole, each later one
//!   zig-zagged as the difference from the one before it: a key's
//!   tuples were mostly written close together;
//! * the delta is one `[shape] [payload]` per op, up to the record's
//!   end (`len` bounds it, so no op count is written). A shape is an
//!   op's skeleton, held once in the log's shape table and named by its
//!   index: the kind (0 create, 1 modify, 2 remove), the target of a
//!   modify or remove (`k + 1` for the id in key slot `k`, the first
//!   that holds it; 0 for an id written in the payload), a create's
//!   class, and the attribute atoms in order with their value tags
//!   (`dps_wm::codec`'s: 0 nil, 1 bool, 2 int, 3 float, 4 symbol,
//!   5 string) and a bool's value. The payload is what varies: the
//!   explicit id, then each int (zig-zagged), float (its bits,
//!   little-endian, eight bytes), symbol and string (atom indices) in
//!   attribute order. The delta reads nothing of the record but the
//!   key's ids;
//! * class, attribute and symbol atoms are indices into the log's atom
//!   table, which holds each once; each rule's name is held once, in the
//!   log's rule-name table, so a record carries only the rule id, which
//!   is its key's rule too.
//!
//! The log grows in fixed-size blocks and a record never straddles two,
//! so an append copies only the record: the log itself never moves. The
//! parallel engine encodes a record *before* it takes the base mutex
//! ([`Tables::encode`], which takes only the atom and shape tables' own
//! lock) and appends its bytes, and its txn id, in the hold
//! ([`CommitLog::append`]); the tables are shared by the log and the
//! encoders for that reason, and no field is written relative to an
//! earlier record but the txn, which the hold writes.

use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dps_match::InstKey;
use dps_rules::RuleId;
use dps_wm::codec::{BOOL, FLOAT, INT, NIL, STR, SYM};
use dps_wm::{Atom, AttrMap, Delta, DeltaSet, IdHasher, IdMap, Timestamp, Value, WmeData, WmeId};

use crate::Firing;

/// Bytes per block. A record longer than a block gets one of its own.
const BLOCK: usize = 4096;

const CREATE: u64 = 0;
const MODIFY: u64 = 1;
const REMOVE: u64 = 2;

/// The txn id of a record no lock-manager transaction committed. The
/// lock manager numbers its transactions from 0 and never reaches it.
pub const NO_TXN: u64 = u64::MAX;

/// An append-only log of encoded commits, in commit order (see the
/// module docs for the format).
#[derive(Clone, Default)]
pub struct CommitLog {
    tables: Tables,
    /// Each rule's name, by [`code`] of its id; set by its first record.
    names: Vec<Option<Atom>>,
    /// Filled front to back; only the last one has room left.
    blocks: Vec<Vec<u8>>,
    len: usize,
    /// The last record's txn id, the next one's delta base.
    last_txn: u64,
}

impl CommitLog {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records' encoded bytes, txn deltas and length prefixes
    /// included. Not included: block slack, and the atom, shape and
    /// rule-name tables, which grow with distinct atoms, op skeletons
    /// and rules, not with the record count.
    pub fn bytes(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Unused room in the last block: capacity the next records fill,
    /// held ahead of them rather than by the records already appended.
    pub fn spare(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.capacity() - b.len())
    }

    /// Decodes the records in commit order, one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Firing> + '_ {
        self.records().map(|(_, body)| self.decode(body))
    }

    /// Decodes record `i`, skipping the records before it undecoded.
    pub fn get(&self, i: usize) -> Option<Firing> {
        self.records().nth(i).map(|(_, body)| self.decode(body))
    }

    /// The committing txn ids in commit order: record `i`'s is the
    /// `i`-th. [`NO_TXN`] where no lock-manager transaction committed.
    pub fn txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.records().map(|(txn, _)| txn)
    }

    /// Decodes the records in batches of `n` (the last may be shorter),
    /// in commit order, so a reader holds at most `n` firings at a time.
    ///
    /// # Panics
    /// If `n` is 0.
    pub fn chunks(&self, n: usize) -> impl Iterator<Item = Vec<Firing>> + '_ {
        assert!(n > 0, "chunk size must be non-zero");
        let mut firings = self.iter();
        std::iter::from_fn(move || {
            let chunk: Vec<Firing> = firings.by_ref().take(n).collect();
            (!chunk.is_empty()).then_some(chunk)
        })
    }

    /// The rule-name sequence, read from the rule-name table and each
    /// record's first varint.
    pub fn names(&self) -> Vec<&str> {
        self.records()
            .map(|(_, body)| self.name(Reader::new(body).u() >> 1).as_str())
            .collect()
    }

    /// Encodes `firing` and appends it under [`NO_TXN`].
    pub(crate) fn push(&mut self, firing: &Firing) {
        let record = self.tables.encode(firing);
        self.append(&record, NO_TXN);
    }

    /// The tables records for this log must be encoded against.
    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }

    /// An empty log sharing this one's tables, so records encoded
    /// against them still append.
    pub(crate) fn empty_sibling(&self) -> CommitLog {
        CommitLog { tables: self.tables.clone(), ..CommitLog::default() }
    }

    /// Appends a record encoded against [`Self::tables`], committed by
    /// `txn`: the txn delta, the length prefix and the bytes, into the
    /// last block or a new one.
    ///
    /// # Panics
    /// If the record's rule already appended under another name.
    pub(crate) fn append(&mut self, record: &Record, txn: u64) {
        let at = code(record.rule) as usize;
        if self.names.len() <= at {
            self.names.resize(at + 1, None);
        }
        match &self.names[at] {
            Some(name) => assert_eq!(name, &record.name, "rule {:?} has one name", record.rule),
            None => self.names[at] = Some(record.name.clone()),
        }
        let delta = zigzag(txn.wrapping_sub(self.last_txn) as i64);
        self.last_txn = txn;
        let len = record.body.len() as u64;
        let need = varint_len(delta) + varint_len(len) + record.body.len();
        if self.blocks.last().is_none_or(|b| b.capacity() - b.len() < need) {
            self.blocks.push(Vec::with_capacity(need.max(BLOCK)));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        put(block, delta);
        put(block, len);
        block.extend_from_slice(&record.body);
        self.len += 1;
    }

    /// Each record's txn id and its bytes after the length prefix.
    fn records(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut blocks = self.blocks.iter();
        let (mut r, mut txn) = (Reader::new(&[]), 0u64);
        std::iter::from_fn(move || {
            while r.done() {
                r = Reader::new(blocks.next()?);
            }
            txn = txn.wrapping_add(unzigzag(r.u()) as u64);
            let len = r.u() as usize;
            Some((txn, r.take(len)))
        })
    }

    fn name(&self, code: u64) -> &Atom {
        self.names[code as usize].as_ref().expect("a rule's first record names it")
    }

    fn decode(&self, body: &[u8]) -> Firing {
        let mut r = Reader::new(body);
        let head = r.u();
        let rule = rule_of(head >> 1);
        let n = r.u();
        let mut last: Option<Timestamp> = None;
        let wmes: Arc<[(WmeId, Timestamp)]> = (0..n)
            .map(|_| {
                let id = WmeId(r.u());
                let ts = match last {
                    None => r.u(),
                    Some(last) => last.wrapping_add(unzigzag(r.u()) as u64),
                };
                last = Some(ts);
                (id, ts)
            })
            .collect();
        let delta = self.tables.lock().read_delta(&mut r, &wmes);
        Firing {
            rule,
            rule_name: self.name(code(rule)).clone(),
            key: InstKey { rule, wmes },
            delta,
            halt: head & 1 != 0,
        }
    }
}

impl fmt::Debug for CommitLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The atom and shape tables a log's records index into, shared by the
/// log and every encoder that appends to it. Indices are handed out on
/// first sight and never change, so a record stays decodable whichever
/// order records are appended in.
#[derive(Clone, Default)]
pub(crate) struct Tables(Arc<Mutex<TableSet>>);

#[derive(Default)]
struct TableSet {
    atoms: AtomTable,
    shapes: ShapeTable,
    /// The op being encoded: its skeleton and its payload. Kept between
    /// encodes, so an op whose shape is known allocates nothing.
    skeleton: Vec<u8>,
    payload: Vec<u8>,
}

#[derive(Default)]
struct AtomTable {
    list: Vec<Atom>,
    /// Index of each atom in `list`, keyed by the address of its text:
    /// `list` keeps that text alive, so no other live string starts
    /// there, and only empty strings, all equal, share an address. Two
    /// past-the-cap heap atoms of equal text may take two indices; both
    /// decode to the same atom.
    index: IdMap<usize, u64>,
}

impl AtomTable {
    fn index(&mut self, atom: &Atom) -> u64 {
        let next = self.list.len() as u64;
        let i = *self.index.entry(atom.as_str().as_ptr() as usize).or_insert(next);
        if i == next {
            self.list.push(atom.clone());
        }
        i
    }

    fn get(&self, i: u64) -> Atom {
        self.list[i as usize].clone()
    }
}

/// Every distinct op skeleton, each held once: the skeletons' bytes
/// back to back and an open-addressed index over them, a few bytes a
/// shape beside its skeleton.
#[derive(Default)]
struct ShapeTable {
    bytes: Vec<u8>,
    /// Where each shape ends in `bytes`; shape `i` starts where `i - 1`
    /// ends.
    ends: Vec<u32>,
    /// Shape index + 1 per slot, 0 for an empty one; the length is a
    /// power of two and at most half the slots are taken.
    slots: Vec<u32>,
}

impl ShapeTable {
    fn get(&self, i: u64) -> &[u8] {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// The index of `skeleton`, handed out on first sight; a lookup
    /// that finds it changes nothing.
    fn index(&mut self, skeleton: &[u8]) -> u64 {
        if self.slots.is_empty() {
            self.grow();
        }
        let at = self.slot(skeleton);
        if self.slots[at] != 0 {
            return u64::from(self.slots[at] - 1);
        }
        self.bytes.extend_from_slice(skeleton);
        self.ends.push(u32::try_from(self.bytes.len()).expect("shape table under 4 GiB"));
        self.slots[at] = self.ends.len() as u32;
        if 2 * self.ends.len() > self.slots.len() {
            self.grow();
        }
        self.ends.len() as u64 - 1
    }

    /// The slot holding `skeleton`, or the empty one it would take.
    fn slot(&self, skeleton: &[u8]) -> usize {
        let mask = self.slots.len() - 1;
        let mut hasher = IdHasher::default();
        hasher.write(skeleton);
        let mut at = hasher.finish() as usize & mask;
        while self.slots[at] != 0 && self.get(u64::from(self.slots[at] - 1)) != skeleton {
            at = (at + 1) & mask;
        }
        at
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for i in 0..self.ends.len() {
            let at = self.slot(self.get(i as u64));
            self.slots[at] = i as u32 + 1;
        }
    }
}

impl TableSet {
    /// Writes each op of `delta` as its shape's index and its payload,
    /// given the ids of the key it fired on.
    fn put_delta(&mut self, w: &mut Vec<u8>, key: &[(WmeId, Timestamp)], delta: &DeltaSet) {
        let mut skeleton = std::mem::take(&mut self.skeleton);
        let mut payload = std::mem::take(&mut self.payload);
        for op in delta.ops() {
            skeleton.clear();
            payload.clear();
            let mut target = |kind: u64, id: WmeId| match key.iter().position(|&(k, _)| k == id) {
                Some(slot) => put(&mut skeleton, kind | (slot as u64 + 1) << 2),
                None => {
                    put(&mut skeleton, kind);
                    put(&mut payload, id.0);
                }
            };
            let attrs = match op {
                Delta::Create(data) => {
                    put(&mut skeleton, CREATE);
                    put(&mut skeleton, self.atoms.index(&data.class));
                    Some(&data.attrs)
                }
                Delta::Modify { id, changes } => {
                    target(MODIFY, *id);
                    Some(changes)
                }
                Delta::Remove(id) => {
                    target(REMOVE, *id);
                    None
                }
            };
            if let Some(attrs) = attrs {
                self.put_attrs(&mut skeleton, &mut payload, attrs);
            }
            put(w, self.shapes.index(&skeleton));
            w.extend_from_slice(&payload);
        }
        self.skeleton = skeleton;
        self.payload = payload;
    }

    fn put_attrs(&mut self, skeleton: &mut Vec<u8>, payload: &mut Vec<u8>, attrs: &AttrMap) {
        put(skeleton, attrs.len() as u64);
        for (attr, value) in attrs.iter() {
            put(skeleton, self.atoms.index(attr));
            match value {
                Value::Nil => skeleton.push(NIL),
                Value::Bool(b) => skeleton.extend([BOOL, u8::from(*b)]),
                Value::Int(i) => {
                    skeleton.push(INT);
                    put(payload, zigzag(*i));
                }
                Value::Float(x) => {
                    skeleton.push(FLOAT);
                    payload.extend(x.to_bits().to_le_bytes());
                }
                Value::Sym(a) => {
                    skeleton.push(SYM);
                    put(payload, self.atoms.index(a));
                }
                Value::Str(a) => {
                    skeleton.push(STR);
                    put(payload, self.atoms.index(a));
                }
            }
        }
    }

    /// Reads the ops from `r` to its end, the inverse of
    /// [`Self::put_delta`] on the same key.
    fn read_delta(&self, r: &mut Reader<'_>, key: &[(WmeId, Timestamp)]) -> DeltaSet {
        std::iter::from_fn(|| {
            if r.done() {
                return None;
            }
            let mut s = Reader::new(self.shapes.get(r.u()));
            let head = s.u();
            let mut target = || match head >> 2 {
                0 => WmeId(r.u()),
                slot => key[slot as usize - 1].0,
            };
            let op = match head & 3 {
                CREATE => {
                    let class = self.atoms.get(s.u());
                    Delta::Create(WmeData { class, attrs: self.read_attrs(&mut s, r) })
                }
                MODIFY => {
                    let id = target();
                    Delta::Modify { id, changes: self.read_attrs(&mut s, r) }
                }
                REMOVE => Delta::Remove(target()),
                kind => panic!("unknown op kind {kind} in a commit-log shape"),
            };
            debug_assert!(s.done(), "a shape decodes to its end");
            Some(op)
        })
        .collect()
    }

    /// A skeleton's attributes from `s`, their payloads from `r`.
    fn read_attrs(&self, s: &mut Reader<'_>, r: &mut Reader<'_>) -> AttrMap {
        (0..s.u())
            .map(|_| {
                let attr = self.atoms.get(s.u());
                let value = match s.byte() {
                    NIL => Value::Nil,
                    BOOL => Value::Bool(s.byte() != 0),
                    INT => Value::Int(unzigzag(r.u())),
                    FLOAT => {
                        let bits = r.take(8).try_into().expect("eight bytes");
                        Value::Float(f64::from_bits(u64::from_le_bytes(bits)))
                    }
                    SYM => Value::Sym(self.atoms.get(r.u())),
                    STR => Value::Str(self.atoms.get(r.u())),
                    tag => panic!("unknown value tag {tag} in a commit-log shape"),
                };
                (attr, value)
            })
            .collect()
    }
}

impl fmt::Debug for Tables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.lock();
        write!(f, "Tables({} atoms, {} shapes)", t.atoms.list.len(), t.shapes.ends.len())
    }
}

impl Tables {
    fn lock(&self) -> MutexGuard<'_, TableSet> {
        // Every table update completes before it is visible, so a
        // poisoned table is still consistent.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encodes `firing` into a record for a log sharing these tables.
    ///
    /// # Panics
    /// If the firing's key names another rule.
    pub(crate) fn encode(&self, firing: &Firing) -> Record {
        assert_eq!(firing.key.rule, firing.rule, "a firing's key names its rule");
        let key = &firing.key.wmes;
        let mut w = Vec::with_capacity(64);
        put(&mut w, code(firing.rule) << 1 | u64::from(firing.halt));
        put(&mut w, key.len() as u64);
        let mut last = None;
        for &(id, ts) in key.iter() {
            put(&mut w, id.0);
            put(&mut w, last.map_or(ts, |last: u64| zigzag(ts.wrapping_sub(last) as i64)));
            last = Some(ts);
        }
        self.lock().put_delta(&mut w, key, &firing.delta);
        Record { body: w, rule: firing.rule, name: firing.rule_name.clone() }
    }
}

/// One encoded commit, ready for [`CommitLog::append`].
pub(crate) struct Record {
    body: Vec<u8>,
    rule: RuleId,
    name: Atom,
}

/// A rule id as the log writes it: shifted by one, so the external
/// pseudo-rule is 0.
fn code(rule: RuleId) -> u64 {
    u64::from(rule.0.wrapping_add(1))
}

fn rule_of(code: u64) -> RuleId {
    RuleId((code as u32).wrapping_sub(1))
}

/// Bytes `v` takes as an LEB128 varint.
fn varint_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Appends `v` as an LEB128 varint.
fn put(w: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        w.push(v as u8 | 0x80);
        v >>= 7;
    }
    w.push(v as u8);
}

/// A cursor over bytes the log wrote itself: malformed input is a bug,
/// so every read panics rather than returns an error.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    fn byte(&mut self) -> u8 {
        let b = self.buf[self.at];
        self.at += 1;
        b
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        s
    }

    /// An LEB128 varint.
    fn u(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, EXTERNAL_RULE, EXTERNAL_RULE_NAME};
    use dps_wm::rng::SmallRng;

    fn firing(rule: u32, name: &str, wmes: &[(u64, u64)], delta: DeltaSet, halt: bool) -> Firing {
        Firing {
            rule: RuleId(rule),
            rule_name: Atom::from(name),
            key: InstKey {
                rule: RuleId(rule),
                wmes: wmes.iter().map(|&(id, ts)| (WmeId(id), ts)).collect(),
            },
            delta,
            halt,
        }
    }

    /// Every `Value` variant, with the float edge cases and a symbol
    /// and a string of the same text.
    fn every_value() -> Vec<(Atom, Value)> {
        let values = [
            Value::Nil,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1.5e-300),
            Value::Sym(Atom::from("same")),
            Value::Str(Atom::from("same")),
            Value::Str(Atom::from("")),
        ];
        values.into_iter().enumerate().map(|(i, v)| (Atom::from(format!("a{i:02}")), v)).collect()
    }

    /// Firings covering every `Delta` variant and every `Value` variant,
    /// an external firing, a halting one, an empty delta, extreme ids
    /// and a record longer than a block.
    fn samples() -> Vec<Firing> {
        let mut every = DeltaSet::new();
        every.create(WmeData { class: Atom::from("row"), attrs: every_value().into_iter().collect() });
        every.create(WmeData::new("empty"));
        every.modify(WmeId(7), every_value());
        every.modify(WmeId(8), []);
        every.remove(WmeId(u64::MAX));
        let mut external = DeltaSet::new();
        external.create(WmeData::new("job").with("id", 3i64));
        let mut long = DeltaSet::new();
        for id in 0..2 * BLOCK as u64 {
            long.remove(WmeId(id << 20));
        }
        vec![
            firing(0, "every", &[(1, 2), (u64::MAX, u64::MAX)], every, false),
            Firing {
                rule: EXTERNAL_RULE,
                rule_name: Atom::from(EXTERNAL_RULE_NAME),
                key: InstKey { rule: EXTERNAL_RULE, wmes: Arc::default() },
                delta: external,
                halt: false,
            },
            firing(1, "stop", &[(3, 4)], DeltaSet::new(), true),
            firing(0, "every", &[], DeltaSet::new(), false),
            firing(1, "stop", &[(9, 10)], long, false),
        ]
    }

    #[test]
    fn every_firing_round_trips() {
        for f in samples() {
            let mut log = CommitLog::default();
            log.push(&f);
            assert_eq!(log.len(), 1);
            assert_eq!(log.get(0), Some(f.clone()), "{f:?}");
        }
        let trace: Trace = samples().into_iter().collect();
        assert_eq!(trace.iter().collect::<Vec<_>>(), samples());
        assert_eq!(trace.names(), ["every", "@session", "stop", "every", "stop"]);
        assert_eq!(trace.get(samples().len()), None);
    }

    #[test]
    fn the_float_edge_cases_keep_their_bits() {
        let trace: Trace = samples().into_iter().collect();
        let first = trace.get(0).unwrap();
        let Delta::Modify { changes, .. } = &first.delta.ops()[2] else {
            panic!("the third op is the modify");
        };
        let bits: Vec<u64> = changes
            .iter()
            .filter_map(|(_, v)| match v {
                Value::Float(x) => Some(x.to_bits()),
                _ => None,
            })
            .collect();
        let want = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5e-300];
        assert_eq!(bits, want.map(f64::to_bits));
        let sym_and_str: Vec<&Value> = changes.iter().map(|(_, v)| v).skip(13).take(2).collect();
        assert_eq!(sym_and_str, [&Value::Sym(Atom::from("same")), &Value::Str(Atom::from("same"))]);
    }

    #[test]
    fn each_atom_shape_and_rule_name_is_stored_once() {
        let f = samples().swap_remove(0);
        let mut log = CommitLog::default();
        log.push(&f);
        let sizes = |log: &CommitLog| {
            let t = log.tables.lock();
            (t.atoms.list.len(), t.shapes.ends.len(), t.shapes.bytes.len())
        };
        let (one, tables) = (log.bytes(), sizes(&log));
        assert_eq!(tables.1, f.delta.len(), "each of the sample's ops has a shape of its own");
        log.push(&f);
        assert_eq!(log.bytes(), 2 * one, "a repeat adds its record and nothing else");
        assert_eq!(sizes(&log), tables);
        assert_eq!(log.names.iter().flatten().count(), 1);
    }

    #[test]
    fn ops_of_one_skeleton_share_a_shape_and_key_targets_cost_no_id() {
        // Two modifies of key tuples, differing only in their int, and
        // a remove of a tuple outside the key.
        let key = [(1 << 40, 5), (3, 6)];
        let mut log = CommitLog::default();
        for n in [1i64, 1 << 30] {
            let mut delta = DeltaSet::new();
            delta.modify(WmeId(1 << 40), [(Atom::from("n"), Value::Int(n))]);
            delta.modify(WmeId(3), [(Atom::from("n"), Value::Int(-n))]);
            delta.remove(WmeId(1 << 41));
            log.push(&firing(0, "r", &key, delta, false));
        }
        let t = log.tables.lock();
        assert_eq!(t.shapes.ends.len(), 3, "slot 0, slot 1 and an explicit id");
        drop(t);
        let sizes: Vec<usize> = log.records().map(|(_, body)| body.len()).collect();
        // head, n, two ids and stamps (6 + 1 + 1 + 1 bytes), three shape
        // indices, the two ints and the explicit id (6 bytes).
        assert_eq!(sizes[0], 1 + 1 + 9 + 3 + 1 + 1 + 6);
        assert_eq!(sizes[1] - sizes[0], 2 * (5 - 1), "a wider int costs only its own bytes");
    }

    /// A random value: any of [`every_value`] (every variant, both
    /// bools, the float edge cases) or a random int, float or symbol.
    fn random_value(rng: &mut SmallRng) -> Value {
        match rng.index(4) {
            0 => every_value().swap_remove(rng.index(16)).1,
            1 => Value::Int(rng.next_u64() as i64 >> rng.index(64)),
            2 => Value::Float(f64::from_bits(rng.next_u64())),
            _ => Value::Sym(Atom::from(format!("s{}", rng.index(8)))),
        }
    }

    fn random_attrs(rng: &mut SmallRng) -> AttrMap {
        (0..rng.index(5))
            .map(|_| (Atom::from(format!("a{}", rng.index(6))), random_value(rng)))
            .collect()
    }

    /// A number of any width, small ones most often.
    fn random_u64(rng: &mut SmallRng) -> u64 {
        rng.next_u64() >> rng.index(64)
    }

    /// A random firing: a rule's, on a key of up to four tuples (a
    /// tuple two CEs matched among them at times), or an external commit
    /// on an empty key; its ops create tuples of several classes and
    /// modify or remove key tuples and tuples outside the key.
    fn random_firing(rng: &mut SmallRng) -> Firing {
        let external = rng.index(5) == 0;
        let mut wmes: Vec<(u64, u64)> = Vec::new();
        if !external {
            for _ in 0..rng.index(5) {
                let twice = !wmes.is_empty() && rng.index(4) == 0;
                let entry = if twice {
                    wmes[rng.index(wmes.len())]
                } else {
                    (random_u64(rng), random_u64(rng))
                };
                wmes.push(entry);
            }
        }
        let mut delta = DeltaSet::new();
        for _ in 0..rng.index(5) {
            let id = match wmes.len() {
                n if n > 0 && rng.random_bool(0.6) => WmeId(wmes[rng.index(n)].0),
                _ => WmeId(random_u64(rng)),
            };
            match rng.index(3) {
                0 => {
                    let class = Atom::from(format!("c{}", rng.index(3)));
                    delta.create(WmeData { class, attrs: random_attrs(rng) });
                }
                1 => {
                    let changes = random_attrs(rng);
                    delta.modify(id, changes.iter().map(|(a, v)| (a.clone(), v.clone())));
                }
                _ => delta.remove(id),
            }
        }
        if external {
            let mut f = firing(0, EXTERNAL_RULE_NAME, &[], delta, false);
            f.rule = EXTERNAL_RULE;
            f.key.rule = EXTERNAL_RULE;
            f
        } else {
            let rule = rng.index(3) as u32;
            firing(rule, &format!("r{rule}"), &wmes, delta, rng.index(8) == 0)
        }
    }

    /// How many modifies and removes of `firings` target a key tuple,
    /// a key tuple two CEs matched, and a tuple outside the key.
    fn targets(firings: &[Firing]) -> [usize; 3] {
        let mut counts = [0; 3];
        for f in firings {
            for id in f.delta.written_ids() {
                let hits = f.key.wmes.iter().filter(|&&(k, _)| k == id).count();
                counts[if hits == 0 { 2 } else { usize::from(hits > 1) }] += 1;
            }
        }
        counts
    }

    #[test]
    fn random_firings_round_trip_through_every_reader() {
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let firings: Vec<Firing> = (0..1500).map(|_| random_firing(&mut rng)).collect();
            let txns: Vec<u64> = (0..firings.len())
                .map(|i| match i % 3 {
                    0 => random_u64(&mut rng),
                    1 => NO_TXN,
                    _ => 1000 + i as u64,
                })
                .collect();
            let log = logged(txns.iter().copied().zip(&firings));
            let ctx = format!("seed {seed}");
            assert!(log.blocks.len() > 8, "{ctx}: the records span many blocks");
            assert!(targets(&firings).iter().all(|&n| n > 50), "{ctx}: {:?}", targets(&firings));
            assert!(firings.iter().any(|f| f.is_external() && !f.delta.is_empty()), "{ctx}");
            assert!(firings.iter().any(|f| f.halt), "{ctx}");

            assert_eq!(log.len(), firings.len(), "{ctx}");
            assert!(log.iter().eq(firings.iter().cloned()), "{ctx}: iter");
            for (i, f) in firings.iter().enumerate() {
                assert_eq!(log.get(i).as_ref(), Some(f), "{ctx}: get({i})");
            }
            assert_eq!(log.get(firings.len()), None, "{ctx}");
            for n in [1, 7, 256, firings.len() + 1] {
                let chunks: Vec<Vec<Firing>> = log.chunks(n).collect();
                assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= n), "{ctx}, n = {n}");
                assert_eq!(chunks.concat(), firings, "{ctx}: chunks({n})");
            }
            assert_eq!(log.txns().collect::<Vec<_>>(), txns, "{ctx}: txns");
            let names: Vec<&str> = firings.iter().map(|f| f.rule_name.as_str()).collect();
            assert_eq!(log.names(), names, "{ctx}: names");
        }
    }

    /// Bytes `op` took inline, before shapes: its tag, its id or its
    /// class, and each attribute's atom, tag and value.
    fn inline_len(op: &Delta) -> usize {
        let attrs = |attrs: &AttrMap| {
            let values: usize = attrs
                .iter()
                .map(|(_, v)| match v {
                    Value::Int(i) => varint_len(zigzag(*i)),
                    Value::Float(_) => 8,
                    Value::Bool(_) => 1,
                    _ => unreachable!("the worst case writes ints"),
                })
                .sum();
            varint_len(attrs.len() as u64) + 2 * attrs.len() + values
        };
        1 + match op {
            Delta::Create(data) => 1 + attrs(&data.attrs),
            Delta::Modify { id, changes } => varint_len(id.0) + attrs(changes),
            Delta::Remove(id) => varint_len(id.0),
        }
    }

    /// The worst case for shapes, no two ops sharing a skeleton, against
    /// the inline encoding: measured 49.1 B per op against 34.3 B, ×1.43.
    const FRESH_SKELETON_BOUND: f64 = 1.5;

    #[test]
    fn fresh_skeletons_cost_a_bounded_multiple_of_inline_ops() {
        // Record `i` creates one tuple with the attributes the bits of
        // `i` name, out of 12: every op a skeleton of its own, while the
        // atom table stays at 13 atoms.
        let attrs: Vec<Atom> = (0..12).map(|j| Atom::from(format!("f{j}"))).collect();
        let (mut log, mut inline) = (CommitLog::default(), 0);
        let ops = 4000i64;
        for i in 1..=ops {
            let mut row = WmeData::new("row");
            let named = attrs.iter().enumerate().filter(|&(j, _)| i >> j & 1 != 0);
            row.attrs = named.map(|(j, a)| (a.clone(), Value::Int(i * j as i64))).collect();
            let mut delta = DeltaSet::new();
            delta.create(row);
            // Inline, the txn delta, length prefix, head, key count and
            // op count took a byte each beside the op.
            inline += 5 + inline_len(&delta.ops()[0]);
            log.push(&firing(0, "r", &[], delta, false));
        }
        let t = log.tables.lock();
        assert_eq!(t.shapes.ends.len(), ops as usize);
        let shapes = &t.shapes;
        let table =
            shapes.bytes.capacity() + 4 * (shapes.ends.capacity() + shapes.slots.capacity());
        let (inline, shaped) =
            (inline as f64 / ops as f64, (log.bytes() + table) as f64 / ops as f64);
        println!(
            "fresh skeletons: {shaped:.1} B per op with the shape table, {inline:.1} B inline"
        );
        assert!(
            shaped <= FRESH_SKELETON_BOUND * inline,
            "{shaped:.1} B against {inline:.1} B inline"
        );
    }

    #[test]
    fn traces_are_equal_exactly_when_their_firings_are() {
        let a: Trace = samples().into_iter().collect();
        let b: Trace = samples().into_iter().collect();
        assert_eq!(a, b, "built against different atom tables");
        assert_eq!(a, a.clone());
        let shorter: Trace = samples().into_iter().skip(1).collect();
        assert_ne!(a, shorter);
        let mut changed = samples();
        changed[2].halt = false;
        assert_ne!(a, changed.into_iter().collect::<Trace>());
        let mut swapped = samples();
        swapped.swap(0, 3);
        assert_ne!(a, swapped.into_iter().collect::<Trace>());
    }

    #[test]
    fn chunks_yield_every_firing_once_in_order() {
        let firings: Vec<Firing> = (0..10u64)
            .map(|i| firing(9, "r", &[(i, i + 1)], DeltaSet::new(), false))
            .chain(samples())
            .collect();
        let trace: Trace = firings.iter().cloned().collect();
        let len = trace.len();
        for n in [1, 3, len, len + 1] {
            let chunks: Vec<Vec<Firing>> = trace.firings.chunks(n).collect();
            assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= n), "n = {n}");
            assert_eq!(chunks.len(), len.div_ceil(n), "n = {n}");
            assert_eq!(chunks.concat(), firings, "n = {n}");
        }
    }

    #[test]
    fn appends_never_move_a_block() {
        let mut log = CommitLog::default();
        assert_eq!(log.spare(), 0);
        let mut firings = samples();
        let long = firings.pop().unwrap();
        log.push(&firings[0]);
        let first = log.blocks[0].as_ptr();
        for _ in 0..200 {
            firings.iter().for_each(|f| log.push(f));
        }
        log.push(&long);
        log.push(&firings[1]);
        assert_eq!(log.blocks[0].as_ptr(), first);
        assert!(log.blocks.len() > 3);
        let oversized: Vec<usize> =
            log.blocks.iter().filter(|b| b.capacity() > BLOCK).map(Vec::len).collect();
        assert_eq!(oversized.len(), 1, "the long record has a block of its own");
        assert!(oversized[0] > BLOCK && log.blocks.last().unwrap().capacity() == BLOCK);
        assert_eq!(log.spare(), BLOCK - log.blocks.last().unwrap().len());
        assert_eq!(log.len(), 1 + 200 * firings.len() + 2);
        assert_eq!(log.get(log.len() - 2), Some(long));
    }

    #[test]
    fn a_taken_trace_leaves_an_empty_one_on_the_same_table() {
        let mut trace = Trace::default();
        let record = trace.firings.tables().encode(&samples()[0]);
        let taken = trace.take();
        assert!(trace.is_empty() && taken.is_empty());
        trace.firings.append(&record, 4);
        assert_eq!(trace.get(0), Some(samples().swap_remove(0)));
        assert_eq!(trace.firings.txns().collect::<Vec<_>>(), [4]);
    }

    /// A log of `firings`, each appended under the txn id beside it.
    fn logged<'a>(entries: impl IntoIterator<Item = (u64, &'a Firing)>) -> CommitLog {
        let mut log = CommitLog::default();
        for (txn, f) in entries {
            let record = log.tables().encode(f);
            log.append(&record, txn);
        }
        log
    }

    #[test]
    fn the_first_record_carries_its_txn() {
        let f = &samples()[0];
        for txn in [0, 1, 63, 64, 1 << 40, NO_TXN - 1, NO_TXN] {
            let log = logged([(txn, f)]);
            assert_eq!(log.txns().collect::<Vec<_>>(), [txn]);
            assert_eq!(log.get(0).as_ref(), Some(f));
        }
        let log = logged([(0, f)]);
        let record = log.tables().encode(f).body.len();
        let prefix = varint_len(record as u64);
        assert_eq!(log.bytes(), 1 + prefix + record, "txn 0 is a one-byte delta from 0");
    }

    #[test]
    fn negative_and_large_txn_deltas_round_trip() {
        let f = &samples()[2];
        let txns = [9, 3, 1 << 40, 0, NO_TXN, 1, NO_TXN, NO_TXN, 1 << 63, (1 << 63) - 1, 5];
        let log = logged(txns.iter().map(|&t| (t, f)));
        assert_eq!(log.txns().collect::<Vec<_>>(), txns);
        // A delta of ±1 costs one byte; a repeat costs one too.
        let one = logged([(9, f)]).bytes();
        for next in [8, 10, 9] {
            assert_eq!(logged([(9, f), (next, f)]).bytes(), 2 * one, "9 then {next}");
        }
    }

    #[test]
    fn txns_stay_aligned_across_blocks() {
        let mut rng = dps_wm::rng::SmallRng::seed_from_u64(7);
        let firings = samples();
        let entries: Vec<(u64, &Firing)> = (0..2000)
            .map(|i| {
                let txn = match i % 4 {
                    0 => rng.next_u64(),
                    1 => NO_TXN,
                    _ => rng.range_u64(0..64),
                };
                (txn, &firings[i % firings.len()])
            })
            .collect();
        let log = logged(entries.iter().copied());
        assert!(log.blocks.len() > 3, "the records span several blocks");
        let want: Vec<u64> = entries.iter().map(|&(t, _)| t).collect();
        assert_eq!(log.txns().collect::<Vec<_>>(), want);
    }

    #[test]
    fn interleaved_session_and_rule_commits_keep_their_txns() {
        // Sessions (the external firing, sample 1) and rule firings
        // commit under txn ids taken in begin order, not commit order.
        let firings = samples();
        let order = [(12, 1), (10, 0), (13, 1), (11, 2), (20, 1), (14, 3), (15, 4)];
        let log = logged(order.iter().map(|&(t, i)| (t, &firings[i])));
        let txns: Vec<u64> = log.txns().collect();
        assert_eq!(txns, order.map(|(t, _)| t));
        let external: Vec<bool> = log.iter().map(|f| f.is_external()).collect();
        assert_eq!(external, order.map(|(_, i)| i == 1));
        assert_eq!(
            log.names(),
            ["@session", "every", "@session", "stop", "@session", "every", "stop"]
        );
    }

    #[test]
    fn get_and_chunks_stay_aligned_with_txns() {
        let firings = samples();
        let entries: Vec<(u64, &Firing)> =
            (0..23u64).map(|i| (1000 - 7 * i, &firings[i as usize % firings.len()])).collect();
        let log = logged(entries.iter().copied());
        let txns: Vec<u64> = log.txns().collect();
        for (i, &(txn, f)) in entries.iter().enumerate() {
            assert_eq!((txns[i], log.get(i).as_ref()), (txn, Some(f)), "record {i}");
        }
        for n in [1, 4, entries.len()] {
            let paired: Vec<(u64, Firing)> =
                txns.iter().copied().zip(log.chunks(n).flatten()).collect();
            let want: Vec<(u64, Firing)> = entries.iter().map(|&(t, f)| (t, f.clone())).collect();
            assert_eq!(paired, want, "n = {n}");
        }
    }

    #[test]
    fn pushed_firings_carry_no_txn_and_equality_ignores_txns() {
        let trace: Trace = samples().into_iter().collect();
        assert!(trace.firings.txns().all(|t| t == NO_TXN));
        let firings = samples();
        let other =
            Trace { firings: logged(firings.iter().enumerate().map(|(i, f)| (i as u64, f))) };
        assert_eq!(trace, other, "equal firings, different txns");
    }
}
