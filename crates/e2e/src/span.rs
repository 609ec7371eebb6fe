//! Client-side spans: one per call into the system, recorded from
//! outside (the engine is not touched), kept in memory and written out
//! when the run ends.
//!
//! Every logical transaction has a root `txn` span covering first
//! `Begin` sent → final `Commit` ack; each request/response round trip
//! inside it (failed attempts included) is a child. An `Invoke` that
//! follows a transaction is its own root (`react`) sharing the
//! transaction's id. A span's *self time* is its duration minus the
//! part of that interval its children cover — for a `txn` root, the
//! client's own time between calls (request building, retry pauses).

use std::io::{self, Write};

use crate::gen::{KINDS, KIND_NAMES};
use crate::stats::sorted;

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// Root: one logical transaction (retries included).
    Txn,
    /// Root: `Commit` ack → `Invoke`'s `Done`.
    React,
    /// `Begin` round trip.
    Begin,
    /// `Insert` round trip.
    Insert,
    /// `Query` round trip.
    Query,
    /// `Remove` round trip.
    Remove,
    /// `Commit` round trip.
    Commit,
}

impl Name {
    /// The request-kind children of a `txn` root, in budget order.
    pub const CALLS: [Name; 5] = [
        Name::Begin,
        Name::Insert,
        Name::Query,
        Name::Remove,
        Name::Commit,
    ];

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Txn => "txn",
            Name::React => "react",
            Name::Begin => "begin",
            Name::Insert => "insert",
            Name::Query => "query",
            Name::Remove => "remove",
            Name::Commit => "commit",
        }
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Logical-transaction id shared by every span of one request.
    pub txn: u64,
    /// This span's id (unique within the run, never 0).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// What was timed.
    pub name: Name,
    /// Transaction kind ([`crate::gen::Txn::kind`]) on `txn` roots.
    pub kind: u8,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Self time (ns) of `parent` given its children: duration minus the
/// union of the child intervals clipped to the parent's own interval.
pub fn self_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut edge = parent.start_ns;
    for (s, e) in iv {
        let s = s.max(edge);
        if e > s {
            covered += e - s;
            edge = e;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Components of a transaction's time: one slot per [`Name::CALLS`]
/// entry, then the `txn` root's self time.
pub const PARTS: usize = 6;

/// A median transaction, taken apart: the transactions between the
/// 45th and 55th percentile of duration, their components averaged.
#[derive(Clone, Debug, PartialEq)]
pub struct Band {
    /// Transactions the band was cut from.
    pub n: usize,
    /// Mean duration (µs) of the band — the p50 to within its width.
    pub p50_us: f64,
    /// Mean µs per component over the band; sums to `p50_us`.
    pub parts_us: [f64; PARTS],
    /// Share of each transaction kind inside the band.
    pub mix: [f64; KINDS],
}

/// One transaction's components, then its duration.
type Row = ([f64; PARTS + 1], usize);

impl Band {
    /// Cuts the band out of `rows` (`None` below twenty transactions).
    fn of(mut rows: Vec<Row>) -> Option<Band> {
        let n = rows.len();
        if n < 2 * crate::stats::MIN_BEYOND {
            return None;
        }
        rows.sort_by(|a, b| a.0[PARTS].total_cmp(&b.0[PARTS]));
        let band = &rows[n * 45 / 100..(n * 55 / 100).max(n * 45 / 100 + 1)];
        let mean = |slot: usize| band.iter().map(|r| r.0[slot]).sum::<f64>() / band.len() as f64;
        Some(Band {
            n,
            p50_us: mean(PARTS),
            parts_us: std::array::from_fn(mean),
            mix: std::array::from_fn(|k| {
                band.iter().filter(|r| r.1 == k).count() as f64 / band.len() as f64
            }),
        })
    }
}

/// Per-call-kind and per-transaction summary of one run's spans.
pub struct Budget {
    /// Sorted round-trip times (µs) per [`Name::CALLS`] entry, all
    /// transaction kinds pooled.
    pub call_us: [Vec<f64>; 5],
    /// Sorted `txn` self times (µs).
    pub self_us: Vec<f64>,
    /// The median transaction of the whole run, kinds pooled: what
    /// `txn_p50_us` is the duration of.
    pub pooled: Option<Band>,
    /// The median transaction of each kind with enough samples.
    pub kinds: Vec<(&'static str, Band)>,
}

impl Budget {
    /// Groups `spans` by transaction and summarises them.
    ///
    /// Medians of skewed components do not add up to the median of
    /// their sum, so the budget is taken over *the median transaction
    /// itself* ([`Band`]). Within a transaction the call spans (every
    /// attempt included) and the root's self time partition the
    /// duration exactly, so a band's parts sum to its duration.
    pub fn of(spans: &[Span]) -> Budget {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_unstable_by_key(|&i| (spans[i].txn, spans[i].start_ns));
        let mut call_us: [Vec<f64>; 5] = Default::default();
        let mut self_us = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let txn = spans[order[i]].txn;
            let mut j = i;
            while j < order.len() && spans[order[j]].txn == txn {
                j += 1;
            }
            let group: Vec<Span> = order[i..j].iter().map(|&k| spans[k]).collect();
            i = j;
            let Some(root) = group.iter().find(|s| s.name == Name::Txn) else {
                continue;
            };
            let children: Vec<Span> = group
                .iter()
                .filter(|s| s.parent == root.id)
                .copied()
                .collect();
            let mut row = [0.0f64; PARTS + 1];
            for c in &children {
                if let Some(slot) = Name::CALLS.iter().position(|n| *n == c.name) {
                    call_us[slot].push(c.us());
                    row[slot] += c.us();
                }
            }
            row[PARTS - 1] = self_ns(root, &children) as f64 / 1e3;
            row[PARTS] = root.us();
            self_us.push(row[PARTS - 1]);
            rows.push((row, root.kind as usize));
        }
        let kinds = (0..KINDS)
            .filter_map(|k| {
                let of_kind = rows.iter().filter(|r| r.1 == k).copied().collect();
                Band::of(of_kind).map(|b| (KIND_NAMES[k], b))
            })
            .collect();
        Budget {
            call_us: call_us.map(sorted),
            self_us: sorted(self_us),
            pooled: Band::of(rows),
            kinds,
        }
    }
}

/// Writes spans as TSV (`txn id parent name kind start_ns end_ns`).
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "txn\tid\tparent\tname\tkind\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.txn,
            s.id,
            s.parent,
            s.name.as_str(),
            KIND_NAMES[s.kind as usize],
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    fn span(txn: u64, id: u64, parent: u64, name: Name, start: u64, end: u64) -> Span {
        Span {
            txn,
            id,
            parent,
            name,
            kind: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 1, 0, Name::Txn, 100, 1100);
        let kids = [
            span(1, 2, 1, Name::Begin, 100, 300),
            span(1, 3, 1, Name::Insert, 250, 500), // overlaps begin by 50
            span(1, 4, 1, Name::Commit, 900, 1300), // clipped at the parent's end
        ];
        // Covered: [100,500) = 400 and [900,1100) = 200.
        assert_eq!(self_ns(&root, &kids), 1000 - 600);
        assert_eq!(self_ns(&root, &[]), 1000);
    }

    /// 40 identical transactions: begin 10 µs, insert 20 µs, commit
    /// 60 µs, 10 µs of client time — medians add up exactly.
    fn synthetic(n: u64, commit_ns: u64) -> Vec<Span> {
        let mut spans = Vec::new();
        for t in 0..n {
            let base = t * 1_000_000;
            let id = t * 10 + 1;
            let end = base + 10_000 + 20_000 + commit_ns + 10_000;
            spans.push(span(t, id, 0, Name::Txn, base, end));
            spans.push(span(t, id + 1, id, Name::Begin, base, base + 10_000));
            spans.push(span(
                t,
                id + 2,
                id,
                Name::Insert,
                base + 15_000,
                base + 35_000,
            ));
            spans.push(span(
                t,
                id + 3,
                id,
                Name::Commit,
                base + 40_000,
                base + 40_000 + commit_ns,
            ));
        }
        spans
    }

    #[test]
    fn budget_of_a_synthetic_trace_adds_up() {
        let b = Budget::of(&synthetic(40, 60_000));
        assert_eq!(b.call_us[0].len(), 40);
        assert_eq!(percentile(&b.call_us[4], 0.5), Some(60.0));
        assert_eq!(percentile(&b.self_us, 0.5), Some(10.0));
        assert_eq!(b.kinds.len(), 1);
        let (kind, k) = &b.kinds[0];
        assert_eq!((*kind, k.n), ("delta", 40));
        // begin 10 + insert 20 + commit 60 + self 10 = 100 µs.
        assert_eq!(k.parts_us, [10.0, 20.0, 0.0, 0.0, 60.0, 10.0]);
        assert!((k.p50_us - 100.0).abs() < 1e-9);
        assert!((k.parts_us.iter().sum::<f64>() - k.p50_us).abs() < 1e-9);
        assert_eq!(b.pooled.as_ref(), Some(k));
        assert_eq!(k.mix, [1.0, 0.0, 0.0]);
        assert!(Budget::of(&synthetic(19, 60_000)).pooled.is_none());
    }

    #[test]
    fn the_band_follows_the_median_transaction_not_the_tail() {
        // A tenth of the transactions spend 1 ms outside any span; the
        // median transaction is untouched.
        let mut spans = synthetic(40, 60_000);
        for s in spans
            .iter_mut()
            .filter(|s| s.name == Name::Txn && s.txn % 10 == 0)
        {
            s.end_ns += 1_000_000;
        }
        let pooled = Budget::of(&spans).pooled.unwrap();
        assert!((pooled.p50_us - 100.0).abs() < 1e-9);
        // Half the transactions are reads three times as long: the
        // pooled band straddles both kinds, each kind keeps its own.
        let mut spans = synthetic(40, 60_000);
        for s in spans.iter_mut().filter(|s| s.txn % 2 == 1) {
            s.kind = 1;
            if s.name == Name::Commit || s.name == Name::Txn {
                s.end_ns += 200_000;
            }
        }
        let b = Budget::of(&spans);
        let p50s: Vec<f64> = b.kinds.iter().map(|(_, k)| k.p50_us).collect();
        assert_eq!(b.kinds.len(), 2);
        assert!((p50s[0] - 100.0).abs() < 1e-9 && (p50s[1] - 300.0).abs() < 1e-9);
        let pooled = b.pooled.unwrap();
        assert!(pooled.p50_us > 100.0 && pooled.p50_us < 300.0);
        assert_eq!(pooled.mix, [0.5, 0.5, 0.0]);
    }
}
