//! Live telemetry: a time-series metrics registry with a background
//! sampler.
//!
//! Every other surface in `dps-obs` is post-hoc — event rings and
//! histograms are merged and summarised only after `run()` drains, so a
//! doom storm that resolves mid-run and a steady 10% degradation
//! produce the same end-of-run aggregates. This module adds the time
//! axis:
//!
//! * **Probes** — `'static` closures over the atomics the engine, lock
//!   manager, match pipeline and WAL already maintain.
//!   Registering a probe costs the hot path *nothing*: the sampler
//!   reads the same counters the end-of-run reports read, which is
//!   also why tick-integrated totals reconcile *exactly* with the
//!   end-of-run reports (they are literally the same cells).
//! * **Histogram sources** — a [`Histogram`] drained each sample
//!   ([`Histogram::drain`]) for sites that need a distribution per tick
//!   (lock-wait p50/p99), so ticks never double-count.
//! * **[`Telemetry`]** — the registry plus a background sampler thread
//!   ([`Telemetry::start`] / [`Telemetry::stop`]) appending one sample
//!   per series per tick into fixed-capacity ring buffers. `start`
//!   takes a first sample and `stop` one forced final sample after
//!   joining, so every series holds at least two samples and the last
//!   sample of every cumulative counter equals the run total.
//! * **[`TimelineDoc`]** — the `dps-timeline-v1` JSON shape embedded
//!   in every bench report, with a parser ([`TimelineDoc::from_json`])
//!   and a structural validator ([`TimelineDoc::validate`]) shared by
//!   `obs_check` and the round-trip property tests.
//!
//! **Lock-order note:** sampling never takes an engine lock. The only
//! mutex the sampler thread acquires is the registry's own series
//! mutex; every probe reads relaxed atomics (mirrors are maintained at
//! the engine's own mutation sites for state that lives behind a
//! mutex, e.g. the match pipeline's delta-log length). A probe that locked an
//! engine mutex could deadlock against a worker holding that mutex
//! while blocking on something the sampler pins — so the contract is:
//! probes are lock-free reads, full stop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hist::Histogram;
use crate::json::Json;

/// Schema tag of the embedded timeline document.
pub const TIMELINE_SCHEMA: &str = "dps-timeline-v1";

/// Sampler configuration.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Sampling period of the background ticker.
    pub tick: Duration,
    /// Ring capacity per series: the newest `capacity` samples are
    /// kept, older ones are dropped (counted in
    /// [`TimelineDoc::dropped`]).
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            tick: Duration::from_millis(10),
            capacity: 8192,
        }
    }
}

/// What a series' samples mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Cumulative, non-decreasing (rates are first differences; the
    /// final sample is the run total).
    Counter,
    /// Point-in-time level (depths, lags, occupancy, per-tick stats).
    Gauge,
}

impl SeriesKind {
    /// Stable machine-readable name (the JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }

    /// Inverse of [`SeriesKind::name`].
    pub fn parse(s: &str) -> Option<SeriesKind> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            _ => None,
        }
    }
}

type Probe = Box<dyn Fn() -> u64 + Send + Sync>;

enum Source {
    /// One probe feeding one series.
    Probe { series: usize, read: Probe },
    /// A histogram drained every tick, feeding four gauge sub-series
    /// (`count` / `p50_ns` / `p99_ns` / `max_ns`, consecutive from
    /// `series`).
    Hist { series: usize, hist: Arc<Histogram> },
}

struct SeriesBuf {
    name: String,
    kind: SeriesKind,
    samples: Vec<u64>,
}

#[derive(Default)]
struct Registry {
    sources: Vec<Source>,
    series: Vec<SeriesBuf>,
}

impl Registry {
    fn push_series(&mut self, name: String, kind: SeriesKind) -> usize {
        self.series.push(SeriesBuf {
            name,
            kind,
            samples: Vec::new(),
        });
        self.series.len() - 1
    }
}

/// The metrics registry + background sampler. Share as
/// `Option<Arc<Telemetry>>` — the same zero-cost seam as `observe`
/// (off ⇒ one branch on a `None`; on ⇒ the hot path still pays
/// nothing, only the sampler thread works).
pub struct Telemetry {
    config: TelemetryConfig,
    registry: Mutex<Registry>,
    ticks: AtomicU64,
    dropped: AtomicU64,
    stop: AtomicBool,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("ticks", &self.ticks.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// An empty registry with the given sampler configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            registry: Mutex::new(Registry::default()),
            ticks: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            handle: Mutex::new(None),
        }
    }

    /// The sampler configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Registers a cumulative counter series. `read` must be a
    /// lock-free read (a relaxed atomic load, or a few of them).
    pub fn counter(&self, name: impl Into<String>, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.probe(name.into(), SeriesKind::Counter, Box::new(read));
    }

    /// Registers a point-in-time gauge series. Same lock-free contract
    /// as [`Telemetry::counter`].
    pub fn gauge(&self, name: impl Into<String>, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.probe(name.into(), SeriesKind::Gauge, Box::new(read));
    }

    fn probe(&self, name: String, kind: SeriesKind, read: Probe) {
        let mut reg = self.registry.lock().unwrap();
        let series = reg.push_series(name, kind);
        reg.sources.push(Source::Probe { series, read });
    }

    /// Registers a histogram drained every tick, expanded into four
    /// gauge sub-series: `<name>.count`, `<name>.p50_ns`,
    /// `<name>.p99_ns`, `<name>.max_ns`.
    pub fn hist(&self, name: &str, hist: Arc<Histogram>) {
        let mut reg = self.registry.lock().unwrap();
        let series = reg.push_series(format!("{name}.count"), SeriesKind::Gauge);
        for sub in ["p50_ns", "p99_ns", "max_ns"] {
            reg.push_series(format!("{name}.{sub}"), SeriesKind::Gauge);
        }
        reg.sources.push(Source::Hist { series, hist });
    }

    /// Takes one sample of every source. Called by the ticker thread;
    /// also safe to call directly (single-tick tests, forced final
    /// sample).
    pub fn sample(&self) {
        let mut reg = self.registry.lock().unwrap();
        let cap = self.config.capacity.max(1);
        let reg = &mut *reg;
        let mut dropped = 0u64;
        let mut push = |series: &mut Vec<SeriesBuf>, idx: usize, v: u64| {
            let buf = &mut series[idx].samples;
            if buf.len() >= cap {
                buf.remove(0);
                dropped += 1;
            }
            buf.push(v);
        };
        for source in &reg.sources {
            match source {
                Source::Probe { series, read, .. } => {
                    push(&mut reg.series, *series, read());
                }
                Source::Hist { series, hist } => {
                    let s = hist.drain();
                    push(&mut reg.series, *series, s.count);
                    push(&mut reg.series, series + 1, s.p50());
                    push(&mut reg.series, series + 2, s.p99());
                    push(&mut reg.series, series + 3, s.max);
                }
            }
        }
        self.dropped.fetch_add(dropped, Relaxed);
        self.ticks.fetch_add(1, Relaxed);
    }

    /// Takes one sample, then starts the background ticker. With the
    /// final sample [`Telemetry::stop`] takes, every series of a run
    /// holds at least its start and its end, however short the run.
    /// Registrations after `start` still work (their series simply
    /// begin short).
    pub fn start(self: &Arc<Self>) {
        let mut handle = self.handle.lock().unwrap();
        if handle.is_some() {
            return;
        }
        self.sample();
        self.stop.store(false, Relaxed);
        let tel = Arc::clone(self);
        *handle = Some(std::thread::spawn(move || {
            while !tel.stop.load(Relaxed) {
                std::thread::park_timeout(tel.config.tick);
                if tel.stop.load(Relaxed) {
                    break;
                }
                tel.sample();
            }
        }));
    }

    /// Stops the ticker and takes one forced final sample, so the last
    /// sample of every counter series equals the value at the moment of
    /// `stop` — the reconciliation anchor the cross-validation tests
    /// (and `obs_check`) rely on.
    pub fn stop(&self) {
        let handle = self.handle.lock().unwrap().take();
        if let Some(h) = handle {
            self.stop.store(true, Relaxed);
            h.thread().unpark();
            let _ = h.join();
        }
        self.sample();
    }

    /// Ticks sampled so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Relaxed)
    }

    /// Snapshot of the whole registry as a [`TimelineDoc`].
    pub fn doc(&self) -> TimelineDoc {
        let reg = self.registry.lock().unwrap();
        TimelineDoc {
            tick_ns: self.config.tick.as_nanos().min(u128::from(u64::MAX)) as u64,
            ticks: self.ticks.load(Relaxed),
            dropped: self.dropped.load(Relaxed),
            series: reg
                .series
                .iter()
                .map(|s| Series {
                    name: s.name.clone(),
                    kind: s.kind,
                    samples: s.samples.clone(),
                })
                .collect(),
        }
    }
}

/// One time series of a [`TimelineDoc`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Series {
    /// Dotted metric name (e.g. `engine.commits`, `lock.wait.p99_ns`).
    pub name: String,
    /// Counter (cumulative) or gauge (level).
    pub kind: SeriesKind,
    /// One value per retained tick, oldest first.
    pub samples: Vec<u64>,
}

/// The `dps-timeline-v1` document: everything the sampler captured,
/// embedded under the `"timeline"` key of the bench reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineDoc {
    /// Sampling period, nanoseconds.
    pub tick_ns: u64,
    /// Total ticks sampled (≥ retained samples when rings overflowed).
    pub ticks: u64,
    /// Samples dropped to ring capacity, summed over all series.
    pub dropped: u64,
    /// The series, in registration order.
    pub series: Vec<Series>,
}

impl TimelineDoc {
    /// The JSON shape (`dps-timeline-v1`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(TIMELINE_SCHEMA)),
            ("tick_ns".into(), Json::u64(self.tick_ns)),
            ("ticks".into(), Json::u64(self.ticks)),
            ("dropped".into(), Json::u64(self.dropped)),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(s.name.clone())),
                                ("kind".into(), Json::str(s.kind.name())),
                                (
                                    "samples".into(),
                                    Json::Arr(s.samples.iter().map(|&v| Json::u64(v)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `dps-timeline-v1` document (inverse of
    /// [`TimelineDoc::to_json`]).
    pub fn from_json(v: &Json) -> Result<TimelineDoc, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("timeline: missing schema")?;
        if schema != TIMELINE_SCHEMA {
            return Err(format!("timeline: unknown schema '{schema}'"));
        }
        let field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("timeline: missing integer '{k}'"))
        };
        let mut series = Vec::new();
        for (i, s) in v
            .get("series")
            .and_then(Json::as_arr)
            .ok_or("timeline: missing series array")?
            .iter()
            .enumerate()
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("timeline: series {i} missing name"))?
                .to_owned();
            let kind = s
                .get("kind")
                .and_then(Json::as_str)
                .and_then(SeriesKind::parse)
                .ok_or(format!("timeline: series '{name}' has a bad kind"))?;
            let samples = s
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or(format!("timeline: series '{name}' missing samples"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or(format!("timeline: series '{name}' has a non-integer sample"))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            series.push(Series { name, kind, samples });
        }
        Ok(TimelineDoc {
            tick_ns: field("tick_ns")?,
            ticks: field("ticks")?,
            dropped: field("dropped")?,
            series,
        })
    }

    /// Structural validity: positive tick, no series longer than the
    /// tick count, counter series non-decreasing, unique names. This is
    /// what `obs_check` runs against every embedded timeline.
    pub fn validate(&self) -> Result<(), String> {
        if self.tick_ns == 0 {
            return Err("timeline: tick_ns must be positive".into());
        }
        let mut seen = std::collections::HashSet::new();
        for s in &self.series {
            if !seen.insert(s.name.as_str()) {
                return Err(format!("timeline: duplicate series '{}'", s.name));
            }
            if (s.samples.len() as u64) > self.ticks {
                return Err(format!(
                    "timeline: series '{}' has {} samples over {} ticks",
                    s.name,
                    s.samples.len(),
                    self.ticks
                ));
            }
            if s.kind == SeriesKind::Counter {
                if let Some(w) = s.samples.windows(2).find(|w| w[1] < w[0]) {
                    return Err(format!(
                        "timeline: counter '{}' decreases ({} -> {})",
                        s.name, w[0], w[1]
                    ));
                }
            }
        }
        Ok(())
    }

    /// The named series, if present.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The last sample of the named series (the run total for a
    /// counter).
    pub fn last(&self, name: &str) -> Option<u64> {
        self.series(name).and_then(|s| s.samples.last().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn counter_series_accumulate_and_reconcile() {
        let tel = Telemetry::new(TelemetryConfig::default());
        let cell = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&cell);
        tel.counter("c", move || c.load(Relaxed));
        for i in 1..=5u64 {
            cell.store(i * 10, Relaxed);
            tel.sample();
        }
        let doc = tel.doc();
        assert_eq!(doc.ticks, 5);
        assert_eq!(doc.series("c").unwrap().samples, vec![10, 20, 30, 40, 50]);
        assert_eq!(doc.last("c"), Some(cell.load(Relaxed)));
        doc.validate().unwrap();
    }

    #[test]
    fn ring_capacity_drops_oldest() {
        let tel = Telemetry::new(TelemetryConfig {
            tick: Duration::from_millis(1),
            capacity: 3,
        });
        let cell = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&cell);
        tel.gauge("g", move || c.load(Relaxed));
        for i in 0..10u64 {
            cell.store(i, Relaxed);
            tel.sample();
        }
        let doc = tel.doc();
        assert_eq!(doc.series("g").unwrap().samples, vec![7, 8, 9]);
        assert_eq!(doc.ticks, 10);
        assert_eq!(doc.dropped, 7);
        doc.validate().unwrap();
    }

    #[test]
    fn hist_source_expands_to_four_series() {
        let tel = Telemetry::new(TelemetryConfig::default());
        let h = Arc::new(Histogram::default());
        tel.hist("lock.wait", Arc::clone(&h));
        h.record(Duration::from_nanos(1000));
        tel.sample();
        tel.sample(); // an empty tick
        let doc = tel.doc();
        assert_eq!(doc.series("lock.wait.count").unwrap().samples, vec![1, 0]);
        assert_eq!(doc.series("lock.wait.max_ns").unwrap().samples[0], 1000);
        assert_eq!(doc.series("lock.wait.p99_ns").unwrap().samples[1], 0);
        doc.validate().unwrap();
    }

    #[test]
    fn background_sampler_runs_and_stops() {
        let tel = Arc::new(Telemetry::new(TelemetryConfig {
            tick: Duration::from_millis(1),
            capacity: 64,
        }));
        let cell = Arc::new(AtomicU64::new(7));
        let c = Arc::clone(&cell);
        tel.counter("c", move || c.load(Relaxed));
        tel.start();
        std::thread::sleep(Duration::from_millis(20));
        cell.store(99, Relaxed);
        tel.stop();
        let doc = tel.doc();
        assert!(doc.ticks >= 2, "sampler ticked");
        // `start` samples the counter before anything moved it.
        assert_eq!(doc.series("c").unwrap().samples[0], 7);
        // The forced final sample anchors the counter at its total.
        assert_eq!(doc.last("c"), Some(99));
        // Idempotent: a second stop only adds another (identical) sample.
        tel.stop();
        assert_eq!(tel.doc().last("c"), Some(99));
    }

    #[test]
    fn json_roundtrip_preserves_the_doc() {
        let doc = TimelineDoc {
            tick_ns: 10_000_000,
            ticks: 3,
            dropped: 0,
            series: vec![
                Series {
                    name: "engine.commits".into(),
                    kind: SeriesKind::Counter,
                    samples: vec![0, 5, 9],
                },
                Series {
                    name: "pipeline.log_depth".into(),
                    kind: SeriesKind::Gauge,
                    samples: vec![3, 1, 0],
                },
            ],
        };
        let text = doc.to_json().to_string_pretty();
        let back = TimelineDoc::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
        back.validate().unwrap();
    }

    #[test]
    fn validate_rejects_corrupted_docs() {
        let good = TimelineDoc {
            tick_ns: 1,
            ticks: 2,
            dropped: 0,
            series: vec![Series {
                name: "c".into(),
                kind: SeriesKind::Counter,
                samples: vec![1, 2],
            }],
        };
        good.validate().unwrap();
        let mut decreasing = good.clone();
        decreasing.series[0].samples = vec![2, 1];
        assert!(decreasing.validate().is_err(), "decreasing counter");
        let mut overlong = good.clone();
        overlong.series[0].samples = vec![1, 2, 3];
        assert!(overlong.validate().is_err(), "more samples than ticks");
        let mut dup = good.clone();
        dup.series.push(dup.series[0].clone());
        assert!(dup.validate().is_err(), "duplicate name");
        let mut zero_tick = good;
        zero_tick.tick_ns = 0;
        assert!(zero_tick.validate().is_err(), "zero tick");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        for bad in [
            r#"{"schema":"dps-timeline-v2","tick_ns":1,"ticks":0,"dropped":0,"series":[]}"#,
            r#"{"tick_ns":1,"ticks":0,"dropped":0,"series":[]}"#,
            r#"{"schema":"dps-timeline-v1","tick_ns":1,"ticks":0,"dropped":0}"#,
            r#"{"schema":"dps-timeline-v1","tick_ns":1,"ticks":0,"dropped":0,"series":[{"name":"x","kind":"bogus","samples":[]}]}"#,
            r#"{"schema":"dps-timeline-v1","tick_ns":1,"ticks":0,"dropped":0,"series":[{"name":"x","kind":"gauge","samples":[1.5]}]}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(TimelineDoc::from_json(&v).is_err(), "should reject: {bad}");
        }
    }
}
