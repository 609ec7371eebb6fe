//! The shaped-delta grammar of a commit-log record (see the module docs
//! of [`crate::codec`]): the atom and shape tables, the one encoder and
//! the one decoder.

use std::hash::Hasher;

use super::{put_varint, unzigzag, zigzag, CodecError, Reader, BOOL, FLOAT, INT, NIL, STR, SYM};
use crate::{Atom, AttrMap, Delta, DeltaSet, IdHasher, IdMap, Timestamp, Value, WmeData, WmeId};

const CREATE: u64 = 0;
const MODIFY: u64 = 1;
const REMOVE: u64 = 2;

/// The atom and shape tables a log's record deltas index into. Indices
/// are handed out on first sight and never change, so a delta stays
/// decodable whichever order records are appended in.
#[derive(Default)]
pub struct RecordTables {
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

    fn get(&self, i: u64) -> Result<Atom, CodecError> {
        let atom = usize::try_from(i).ok().and_then(|i| self.list.get(i));
        atom.cloned().ok_or(CodecError::TooLarge)
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
    /// Shape `i`'s skeleton; `i` must be below `ends.len()`.
    fn skeleton(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Shape `i`'s skeleton, or [`CodecError::TooLarge`] past the table.
    fn get(&self, i: u64) -> Result<&[u8], CodecError> {
        let i = usize::try_from(i).ok().filter(|&i| i < self.ends.len());
        i.map(|i| self.skeleton(i)).ok_or(CodecError::TooLarge)
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
        while self.slots[at] != 0 && self.skeleton(self.slots[at] as usize - 1) != skeleton {
            at = (at + 1) & mask;
        }
        at
    }

    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for i in 0..self.ends.len() {
            let at = self.slot(self.skeleton(i));
            self.slots[at] = i as u32 + 1;
        }
    }
}

impl RecordTables {
    /// Atoms in the atom table.
    pub fn atoms(&self) -> usize {
        self.atoms.list.len()
    }

    /// Shapes in the shape table.
    pub fn shapes(&self) -> usize {
        self.shapes.ends.len()
    }

    /// Writes each op of `delta` as its shape's index and its payload,
    /// given the `(id, timestamp)` pairs of the key it fired on (only
    /// the ids are read).
    pub fn put_delta(&mut self, out: &mut Vec<u8>, key: &[(WmeId, Timestamp)], delta: &DeltaSet) {
        let mut skeleton = std::mem::take(&mut self.skeleton);
        let mut payload = std::mem::take(&mut self.payload);
        for op in delta.ops() {
            skeleton.clear();
            payload.clear();
            let mut target = |kind: u64, id: WmeId| match key.iter().position(|&(k, _)| k == id) {
                Some(slot) => put_varint(&mut skeleton, kind | (slot as u64 + 1) << 2),
                None => {
                    put_varint(&mut skeleton, kind);
                    put_varint(&mut payload, id.0);
                }
            };
            let attrs = match op {
                Delta::Create(data) => {
                    put_varint(&mut skeleton, CREATE);
                    put_varint(&mut skeleton, self.atoms.index(&data.class));
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
            put_varint(out, self.shapes.index(&skeleton));
            out.extend_from_slice(&payload);
        }
        self.skeleton = skeleton;
        self.payload = payload;
    }

    fn put_attrs(&mut self, skeleton: &mut Vec<u8>, payload: &mut Vec<u8>, attrs: &AttrMap) {
        put_varint(skeleton, attrs.len() as u64);
        for (attr, value) in attrs.iter() {
            put_varint(skeleton, self.atoms.index(attr));
            match value {
                Value::Nil => skeleton.push(NIL),
                Value::Bool(b) => skeleton.extend([BOOL, u8::from(*b)]),
                Value::Int(i) => {
                    skeleton.push(INT);
                    put_varint(payload, zigzag(*i));
                }
                Value::Float(x) => {
                    skeleton.push(FLOAT);
                    payload.extend(x.to_bits().to_le_bytes());
                }
                Value::Sym(a) => {
                    skeleton.push(SYM);
                    put_varint(payload, self.atoms.index(a));
                }
                Value::Str(a) => {
                    skeleton.push(STR);
                    put_varint(payload, self.atoms.index(a));
                }
            }
        }
    }

    /// Reads the ops from `r` to its end, the inverse of
    /// [`Self::put_delta`] on the same key. Malformed bytes, or a shape,
    /// atom or key slot past its table, are an error.
    pub fn read_delta(
        &self,
        r: &mut Reader<'_>,
        key: &[(WmeId, Timestamp)],
    ) -> Result<DeltaSet, CodecError> {
        std::iter::from_fn(|| (!r.at_end()).then(|| self.read_op(r, key))).collect()
    }

    fn read_op(&self, r: &mut Reader<'_>, key: &[(WmeId, Timestamp)]) -> Result<Delta, CodecError> {
        let mut s = Reader::new(self.shapes.get(r.varint()?)?);
        let head = s.varint()?;
        let target = |r: &mut Reader<'_>| match head >> 2 {
            0 => r.varint().map(WmeId),
            slot => {
                let k = usize::try_from(slot - 1).ok().and_then(|k| key.get(k));
                k.map(|&(id, _)| id).ok_or(CodecError::TooLarge)
            }
        };
        let op = match head & 3 {
            CREATE => {
                let class = self.atoms.get(s.varint()?)?;
                Delta::Create(WmeData { class, attrs: self.read_attrs(&mut s, r)? })
            }
            MODIFY => {
                let id = target(r)?;
                Delta::Modify { id, changes: self.read_attrs(&mut s, r)? }
            }
            REMOVE => Delta::Remove(target(r)?),
            kind => return Err(CodecError::BadTag(kind as u8)),
        };
        s.finish()?;
        Ok(op)
    }

    /// A skeleton's attributes from `s`, their payloads from `r`.
    fn read_attrs(&self, s: &mut Reader<'_>, r: &mut Reader<'_>) -> Result<AttrMap, CodecError> {
        let n = s.varint()?;
        // An attribute takes two skeleton bytes at least, its atom and
        // its tag, so a count the skeleton cannot hold reserves nothing.
        if n > (s.remaining() / 2) as u64 {
            return Err(CodecError::Truncated);
        }
        let mut attrs = AttrMap::with_capacity(n as usize);
        for _ in 0..n {
            let attr = self.atoms.get(s.varint()?)?;
            let value = match s.u8()? {
                NIL => Value::Nil,
                BOOL => Value::Bool(s.u8()? != 0),
                INT => Value::Int(unzigzag(r.varint()?)),
                FLOAT => Value::Float(f64::from_bits(r.u64()?)),
                SYM => Value::Sym(self.atoms.get(r.varint()?)?),
                STR => Value::Str(self.atoms.get(r.varint()?)?),
                tag => return Err(CodecError::BadTag(tag)),
            };
            attrs.insert(attr, value);
        }
        Ok(attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::super::varint_len;
    use super::*;
    use crate::rng::SmallRng;

    type Key = Vec<(WmeId, Timestamp)>;

    fn key(pairs: &[(u64, u64)]) -> Key {
        pairs.iter().map(|&(id, ts)| (WmeId(id), ts)).collect()
    }

    /// Every `Value` variant, with both bools and the float edge cases.
    fn every_value() -> AttrMap {
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

    /// The deltas of `dps-core`'s golden commit log, on their keys: key
    /// slot and explicit-id modifies and removes, two classes, an empty
    /// key, and a last delta that reuses the first one's shapes.
    fn golden() -> Vec<(Key, DeltaSet)> {
        let mut first = DeltaSet::new();
        first.create(WmeData { class: Atom::from("row"), attrs: every_value() });
        first.modify(WmeId(5), [(Atom::from("n"), Value::Int(-3))]);
        first.modify(WmeId(300), [(Atom::from("n"), Value::Int(70))]);
        first.remove(WmeId(9));
        first.remove(WmeId(301));
        let mut external = DeltaSet::new();
        external.create(WmeData::new("job").with("id", 3i64));
        let mut stop = DeltaSet::new();
        stop.create(WmeData::new("job").with("id", 4i64).with("done", true));
        let mut again = DeltaSet::new();
        again.modify(WmeId(6), [(Atom::from("n"), Value::Int(1 << 20))]);
        again.modify(WmeId(400), [(Atom::from("n"), Value::Int(-1))]);
        again.remove(WmeId(11));
        again.remove(WmeId(1 << 33));
        vec![
            (key(&[(5, 100), (9, 98)]), first),
            (key(&[]), external),
            (key(&[(12, 130)]), stop),
            (key(&[(6, 200), (11, 201)]), again),
        ]
    }

    fn random_value(rng: &mut SmallRng) -> Value {
        match rng.index(5) {
            0 => every_value().iter().nth(rng.index(16)).map(|(_, v)| v.clone()).unwrap(),
            1 => Value::Int(rng.next_u64() as i64 >> rng.index(64)),
            2 => Value::Float(f64::from_bits(rng.next_u64())),
            3 => Value::Str(Atom::from(format!("t{}", rng.index(4)))),
            _ => Value::Sym(Atom::from(format!("s{}", rng.index(8)))),
        }
    }

    /// A random delta on a random key: creates of several classes, and
    /// modifies and removes of key tuples and of tuples outside it.
    fn random_delta(rng: &mut SmallRng) -> (Key, DeltaSet) {
        let key: Key = (0..rng.index(4)).map(|_| (WmeId(rng.next_u64() >> 40), 1)).collect();
        let mut delta = DeltaSet::new();
        for _ in 0..1 + rng.index(6) {
            let id = match key.len() {
                n if n > 0 && rng.random_bool(0.5) => key[rng.index(n)].0,
                _ => WmeId(rng.next_u64() >> rng.index(64)),
            };
            let attrs: Vec<(Atom, Value)> = (0..rng.index(5))
                .map(|_| (Atom::from(format!("a{}", rng.index(6))), random_value(rng)))
                .collect();
            match rng.index(3) {
                0 => delta.create(WmeData {
                    class: Atom::from(format!("c{}", rng.index(3))),
                    attrs: attrs.into_iter().collect(),
                }),
                1 => delta.modify(id, attrs),
                _ => delta.remove(id),
            }
        }
        (key, delta)
    }

    /// `cases` encoded against one table, each with its bytes.
    fn encoded(cases: Vec<(Key, DeltaSet)>) -> (RecordTables, Vec<(Key, DeltaSet, Vec<u8>)>) {
        let mut t = RecordTables::default();
        let records = cases
            .into_iter()
            .map(|(key, delta)| {
                let mut bytes = Vec::new();
                t.put_delta(&mut bytes, &key, &delta);
                (key, delta, bytes)
            })
            .collect();
        (t, records)
    }

    fn read(t: &RecordTables, bytes: &[u8], key: &[(WmeId, Timestamp)]) -> Result<DeltaSet, CodecError> {
        t.read_delta(&mut Reader::new(bytes), key)
    }

    /// Valid deltas (the golden ones and a random one) decode to
    /// themselves. Every truncation of them, every byte of theirs and of
    /// their shape table set to every other value, and seeded random
    /// bytes each decode to a delta or an error, and none panics (the
    /// test profile checks overflow too).
    #[test]
    fn no_input_makes_the_decoder_panic() {
        let mut cases = golden();
        cases.push(random_delta(&mut SmallRng::seed_from_u64(11)));
        let (mut t, records) = encoded(cases);
        let (mut decoded, mut failed) = (0, 0);
        let mut tally = |r: Result<DeltaSet, CodecError>| match r {
            Ok(_) => decoded += 1,
            Err(_) => failed += 1,
        };
        for (key, delta, bytes) in &records {
            let back = read(&t, bytes, key).map(|d| format!("{d:?}"));
            assert_eq!(back, Ok(format!("{delta:?}")), "NaN != NaN, so compare text");
            for cut in 0..bytes.len() {
                tally(read(&t, &bytes[..cut], key));
            }
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                for v in (0..=255).filter(|&v| v != bytes[at]) {
                    flipped[at] = v;
                    tally(read(&t, &flipped, key));
                }
                flipped[at] = bytes[at];
            }
        }
        for at in 0..t.shapes.bytes.len() {
            let was = t.shapes.bytes[at];
            for v in (0..=255).filter(|&v| v != was) {
                t.shapes.bytes[at] = v;
                for (key, _, bytes) in &records {
                    tally(read(&t, bytes, key));
                }
            }
            t.shapes.bytes[at] = was;
        }
        let mut rng = SmallRng::seed_from_u64(59);
        for _ in 0..10_000 {
            let bytes: Vec<u8> = (0..rng.index(48)).map(|_| rng.next_u64() as u8).collect();
            let (key, _, _) = &records[rng.index(records.len())];
            tally(read(&t, &bytes, key));
        }
        assert!(decoded > 10_000 && failed > 10_000, "{decoded} decoded, {failed} failed");
    }

    #[test]
    fn overlong_varints_are_errors() {
        let mut eleven = vec![0x80; 10];
        eleven.push(0);
        assert_eq!(Reader::new(&eleven).varint(), Err(CodecError::TooLarge));
        let mut high = vec![0xff; 9];
        high.push(2);
        assert_eq!(Reader::new(&high).varint(), Err(CodecError::TooLarge));
        high[9] = 1;
        assert_eq!(Reader::new(&high).varint(), Ok(u64::MAX));
        assert_eq!(Reader::new(&high[..9]).varint(), Err(CodecError::Truncated));
        let (t, _) = encoded(golden());
        assert_eq!(read(&t, &eleven, &[]), Err(CodecError::TooLarge), "as a shape index");
    }

    /// A shape of `skeleton` added to the golden tables, and its index.
    fn with_shape(skeleton: &[u8]) -> (RecordTables, Vec<u8>) {
        let (mut t, _) = encoded(golden());
        let mut record = Vec::new();
        put_varint(&mut record, t.shapes.index(skeleton));
        (t, record)
    }

    #[test]
    fn a_huge_attribute_count_fails_before_it_allocates() {
        let mut skeleton = vec![CREATE as u8, 0];
        put_varint(&mut skeleton, u64::MAX);
        skeleton.extend([0, NIL, 1]);
        let (t, record) = with_shape(&skeleton);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::Truncated));
    }

    #[test]
    fn indices_one_past_their_table_are_errors() {
        let (t, _) = encoded(golden());
        let mut record = Vec::new();
        put_varint(&mut record, t.shapes() as u64);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::TooLarge), "a shape index");

        let mut class = vec![CREATE as u8];
        put_varint(&mut class, t.atoms() as u64);
        class.push(0);
        let (t, record) = with_shape(&class);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::TooLarge), "a class atom");

        let (t, mut record) = with_shape(&[CREATE as u8, 0, 1, 0, SYM]);
        let mut ok = record.clone();
        put_varint(&mut ok, t.atoms() as u64 - 1);
        assert!(read(&t, &ok, &[]).is_ok());
        put_varint(&mut record, t.atoms() as u64);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::TooLarge), "a symbol atom");

        let (t, record) = with_shape(&[REMOVE as u8 | 2 << 2]);
        assert!(read(&t, &record, &key(&[(1, 1), (2, 2)])).is_ok());
        assert_eq!(read(&t, &record, &key(&[(1, 1)])), Err(CodecError::TooLarge), "a key slot");

        let (t, record) = with_shape(&[3]);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::BadTag(3)), "an op kind");
        let (t, record) = with_shape(&[CREATE as u8, 0, 1, 0, 6]);
        assert_eq!(read(&t, &record, &[]), Err(CodecError::BadTag(6)), "a value tag");
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
        let (mut t, mut inline, mut shaped) = (RecordTables::default(), 0, 0);
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
            let mut bytes = Vec::new();
            t.put_delta(&mut bytes, &[], &delta);
            // The commit log frames it with a one-byte txn delta, the
            // length prefix, a one-byte head and a key count of 0.
            shaped += 3 + varint_len(2 + bytes.len() as u64) + bytes.len();
        }
        assert_eq!(t.shapes(), ops as usize);
        let shapes = &t.shapes;
        let table =
            shapes.bytes.capacity() + 4 * (shapes.ends.capacity() + shapes.slots.capacity());
        let (inline, shaped) =
            (inline as f64 / ops as f64, (shaped + table) as f64 / ops as f64);
        println!(
            "fresh skeletons: {shaped:.1} B per op with the shape table, {inline:.1} B inline"
        );
        assert!(
            shaped <= FRESH_SKELETON_BOUND * inline,
            "{shaped:.1} B against {inline:.1} B inline"
        );
    }
}
