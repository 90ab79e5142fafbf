//! Hierarchical multi-resolution metric rollups — the "time wheel".
//!
//! The paper's central observation is that a disk workload looks
//! qualitatively different at different observation time-scales; this
//! module gives the toolkit's *own* telemetry the same treatment. A
//! [`RollupSet`] rolls every counter, gauge, and histogram into
//! bounded ring-buffered windows at several resolutions at once (e.g.
//! 10 ms / 1 s / 1 min / whole-run), on either of two time axes:
//!
//! * **wall time** — fed by the `spindle-pulse` sampler, which calls
//!   [`RollupSet::ingest_snapshot`] on every tick; the set computes
//!   per-metric deltas against the previous snapshot and banks them
//!   into the window each tick falls in.
//! * **sim time** — fed point-by-point by the disk simulator's
//!   observer via [`RollupSet::record_hist`] /
//!   [`RollupSet::add_counter`], stamped with simulated nanoseconds.
//!
//! Memory is bounded by construction: each resolution keeps at most
//! `capacity` windows; older windows fold into an **evicted
//! accumulator** rather than being dropped, so the invariant
//!
//! > evicted + Σ retained windows = lifetime totals
//!
//! holds exactly — histogram buckets merge by element-wise addition,
//! which is lossless. That exact-merge property is what lets the
//! `/timescales` endpoint cross-check itself against `/metrics`, and
//! is pinned by a property test.
//!
//! Reading a rollup ([`RollupSet::snapshot`]) derives the per-window
//! rates, peak-to-mean burstiness, and idle-interval statistics the
//! multi-time-scale analysis needs; ingestion itself stores only raw
//! deltas.
//!
//! Rollups are strictly read-only over the run: they observe registry
//! snapshots (or receive copies of values already recorded), never
//! feed anything back, and write only to whoever asks for a snapshot.

use crate::json::Json;
use crate::registry::{default_bounds, HistogramSnapshot, Snapshot};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Nanoseconds per millisecond, for callers converting sampler
/// timestamps onto the wheel's nanosecond axis.
pub const NS_PER_MS: u64 = 1_000_000;

/// One resolution of the wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Human-readable name (`"1s"`, `"10ms"`, `"run"`).
    pub name: &'static str,
    /// Window width in nanoseconds on the wheel's axis; `None` makes a
    /// single whole-run window.
    pub window_ns: Option<u64>,
    /// Maximum retained windows; older windows fold into the evicted
    /// accumulator (clamped to at least 1).
    pub capacity: usize,
}

impl Resolution {
    /// A new resolution descriptor.
    #[must_use]
    pub const fn new(name: &'static str, window_ns: Option<u64>, capacity: usize) -> Self {
        Resolution {
            name,
            window_ns,
            capacity,
        }
    }

    /// Window width in (possibly fractional) seconds, `None` for the
    /// whole-run resolution.
    #[must_use]
    pub fn window_secs(&self) -> Option<f64> {
        self.window_ns.map(|w| w as f64 / 1e9)
    }
}

/// Deltas accumulated inside one window (or the evicted accumulator).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowAccum {
    /// Per-counter increments observed in this window.
    pub counters: BTreeMap<String, u64>,
    /// Last observed value of each gauge in this window.
    pub gauges: BTreeMap<String, i64>,
    /// Per-histogram bucket deltas observed in this window.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl WindowAccum {
    /// Folds `other` (a *newer* window) into `self`: counters and
    /// histogram buckets add exactly; gauges keep the newer value.
    pub fn merge_from(&mut self, other: &WindowAccum) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge_from(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// True when the window saw activity: any counter increment or any
    /// histogram observation. Gauge sets alone do not count — the wall
    /// sampler republishes gauges every tick, which says nothing about
    /// whether the run did anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.counters.values().any(|&d| d > 0) || self.histograms.values().any(|h| h.count > 0)
    }
}

/// The per-metric delta from `prev` (`None` means "everything is new",
/// so the snapshot counts in full) to `snap`, as a mergeable
/// accumulator: counter increments, latest gauge values, and histogram
/// bucket deltas. This is exactly the arithmetic [`RollupSet::ingest_snapshot`]
/// banks per tick, exposed so a cross-process ingester can compute the
/// delta once and feed both a per-stream wheel and a fleet-wide wheel
/// ([`RollupSet::ingest_accum`]) from the same numbers.
#[must_use]
pub fn snapshot_delta(prev: Option<&Snapshot>, snap: &Snapshot) -> WindowAccum {
    let mut out = WindowAccum::default();
    for (name, v) in &snap.counters {
        let before = prev.and_then(|p| p.counter(name)).unwrap_or(0);
        let delta = v.saturating_sub(before);
        if delta > 0 {
            out.counters.insert(name.clone(), delta);
        }
    }
    for (name, v) in &snap.gauges {
        out.gauges.insert(name.clone(), *v);
    }
    for (name, h) in &snap.histograms {
        let delta = match prev.and_then(|p| p.histogram(name)) {
            Some(before) => h.saturating_diff(before),
            None => h.clone(),
        };
        if delta.count > 0 {
            out.histograms.insert(name.clone(), delta);
        }
    }
    out
}

/// One retained window: its index on the axis plus its deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// `t_ns / window_ns` (0 for the whole-run resolution).
    pub index: u64,
    /// The deltas banked into this window.
    pub accum: WindowAccum,
}

#[derive(Debug)]
struct Wheel {
    res: Resolution,
    windows: VecDeque<Window>,
    evicted: WindowAccum,
    evicted_windows: u64,
}

impl Wheel {
    fn new(res: Resolution) -> Self {
        Wheel {
            res,
            windows: VecDeque::new(),
            evicted: WindowAccum::default(),
            evicted_windows: 0,
        }
    }

    /// The window `t_ns` falls in, creating (and evicting) as needed.
    /// A timestamp older than every retained window clamps into the
    /// oldest retained one, so the exact-merge invariant never breaks.
    fn window_for(&mut self, t_ns: u64) -> &mut WindowAccum {
        let idx = match self.res.window_ns {
            Some(w) => t_ns / w.max(1),
            None => 0,
        };
        if let Some(back) = self.windows.back() {
            if idx <= back.index {
                let pos = self
                    .windows
                    .iter()
                    .rposition(|w| w.index <= idx)
                    .unwrap_or(0);
                return &mut self.windows[pos].accum;
            }
        }
        self.windows.push_back(Window {
            index: idx,
            accum: WindowAccum::default(),
        });
        while self.windows.len() > self.res.capacity.max(1) {
            let old = self.windows.pop_front().expect("len checked");
            self.evicted.merge_from(&old.accum);
            self.evicted_windows += 1;
        }
        &mut self.windows.back_mut().expect("window pushed above").accum
    }
}

/// Everything a [`RollupSet`] guards with its one mutex.
#[derive(Debug)]
struct State {
    wheels: Vec<Wheel>,
    /// The last ingested registry snapshot, for delta computation.
    prev: Option<Snapshot>,
    last_t_ns: u64,
}

impl State {
    /// Advances the axis high-water mark and returns the wheels.
    fn at(&mut self, t_ns: u64) -> &mut Vec<Wheel> {
        self.last_t_ns = self.last_t_ns.max(t_ns);
        &mut self.wheels
    }
}

/// A set of ring-buffered rollup wheels over one time axis.
///
/// Thread-safe; ingestion takes one mutex, so it belongs on sampler
/// ticks and per-request observer paths, not in tight inner loops.
#[derive(Debug)]
pub struct RollupSet {
    axis: &'static str,
    state: Mutex<State>,
}

impl RollupSet {
    /// A rollup set over `resolutions` on the named time `axis`
    /// (`"wall"` or `"sim"` by convention).
    #[must_use]
    pub fn new(axis: &'static str, resolutions: Vec<Resolution>) -> Self {
        RollupSet {
            axis,
            state: Mutex::new(State {
                wheels: resolutions.into_iter().map(Wheel::new).collect(),
                prev: None,
                last_t_ns: 0,
            }),
        }
    }

    /// The standard wall-time wheel the telemetry session uses:
    /// 1 s windows (two minutes retained), 10 s windows (ten minutes
    /// retained), and a whole-run window.
    #[must_use]
    pub fn wall() -> Self {
        RollupSet::new(
            "wall",
            vec![
                Resolution::new("1s", Some(1_000_000_000), 120),
                Resolution::new("10s", Some(10_000_000_000), 60),
                Resolution::new("run", None, 1),
            ],
        )
    }

    /// The standard simulated-time wheel the disk observer feeds:
    /// 10 ms, 1 s, and 1 min windows plus a whole-run window — the
    /// paper's "different time-scales" ladder.
    #[must_use]
    pub fn sim() -> Self {
        RollupSet::new(
            "sim",
            vec![
                Resolution::new("10ms", Some(10_000_000), 512),
                Resolution::new("1s", Some(1_000_000_000), 256),
                Resolution::new("1min", Some(60_000_000_000), 64),
                Resolution::new("run", None, 1),
            ],
        )
    }

    /// The axis name this set rolls over.
    #[must_use]
    pub fn axis(&self) -> &'static str {
        self.axis
    }

    /// Ingests a full registry snapshot taken at `t_ns` on this axis:
    /// computes per-metric deltas against the previously ingested
    /// snapshot and banks them into the window `t_ns` falls in, at
    /// every resolution. The first snapshot counts in full (the
    /// implicit previous value is zero), so lifetime totals equal the
    /// registry's own.
    pub fn ingest_snapshot(&self, t_ns: u64, snap: &Snapshot) {
        let mut state = self.lock();
        let delta = snapshot_delta(state.prev.as_ref(), snap);
        for wheel in state.at(t_ns) {
            wheel.window_for(t_ns).merge_from(&delta);
        }
        state.prev = Some(snap.clone());
    }

    /// Banks a pre-computed delta accumulator at `t_ns` — the
    /// cross-process merge path. A daemon reassembling per-job
    /// telemetry streams computes each job's snapshot delta once (via
    /// [`snapshot_delta`]) and feeds it here to maintain a fleet-wide
    /// wheel: counters and histogram buckets add exactly, gauges keep
    /// the newest value, so the fleet's lifetime totals equal the sum
    /// of the per-job lifetime totals bucket for bucket.
    pub fn ingest_accum(&self, t_ns: u64, delta: &WindowAccum) {
        for wheel in self.lock().at(t_ns) {
            wheel.window_for(t_ns).merge_from(delta);
        }
    }

    /// Banks one histogram observation (default power-of-two buckets)
    /// at `t_ns` — the point-ingestion path the simulator's observer
    /// uses on the sim axis.
    pub fn record_hist(&self, name: &str, t_ns: u64, value: u64) {
        for wheel in self.lock().at(t_ns) {
            let win = wheel.window_for(t_ns);
            let h = win
                .histograms
                .entry(name.to_owned())
                .or_insert_with(|| HistogramSnapshot::empty_with_bounds(default_bounds()));
            h.record(value);
        }
    }

    /// Banks a counter increment at `t_ns` (sim-axis point ingestion).
    pub fn add_counter(&self, name: &str, t_ns: u64, delta: u64) {
        if delta == 0 {
            return;
        }
        for wheel in self.lock().at(t_ns) {
            let win = wheel.window_for(t_ns);
            *win.counters.entry(name.to_owned()).or_insert(0) += delta;
        }
    }

    /// Records a gauge's value at `t_ns` (sim-axis point ingestion).
    pub fn set_gauge(&self, name: &str, t_ns: u64, value: i64) {
        for wheel in self.lock().at(t_ns) {
            wheel.window_for(t_ns).gauges.insert(name.to_owned(), value);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("rollup state lock")
    }

    /// An immutable view of every wheel.
    #[must_use]
    pub fn snapshot(&self) -> RollupSnapshot {
        let state = self.lock();
        RollupSnapshot {
            axis: self.axis,
            last_t_ns: state.last_t_ns,
            resolutions: state
                .wheels
                .iter()
                .map(|w| ResolutionSnapshot {
                    resolution: w.res,
                    windows: w.windows.iter().cloned().collect(),
                    evicted: w.evicted.clone(),
                    evicted_windows: w.evicted_windows,
                })
                .collect(),
        }
    }

    /// JSON rendering of [`RollupSet::snapshot`] — the `/timescales`
    /// document body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

/// Peak-to-mean burstiness of one counter over a resolution's
/// retained windows (implicit empty windows between the first and
/// last retained index count toward the mean).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burstiness {
    /// Largest per-window increment.
    pub peak: u64,
    /// Mean per-window increment over the spanned windows.
    pub mean: f64,
    /// `peak / mean` (1.0 for a perfectly smooth series).
    pub peak_to_mean: f64,
}

/// Idle-interval statistics over a resolution's retained windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdleStats {
    /// Windows spanned between the first and last retained index.
    pub spanned: u64,
    /// Windows with activity (counter increments or histogram
    /// observations).
    pub active: u64,
    /// Windows without activity (`spanned - active`).
    pub idle: u64,
    /// Longest run of consecutive idle windows.
    pub longest_idle_streak: u64,
}

/// One resolution's retained windows plus its evicted accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionSnapshot {
    /// The resolution descriptor.
    pub resolution: Resolution,
    /// Retained windows, oldest first. Sparse: windows nothing landed
    /// in are simply absent (their indices still count as idle).
    pub windows: Vec<Window>,
    /// Everything evicted from the ring, merged exactly.
    pub evicted: WindowAccum,
    /// How many windows have been folded into `evicted`.
    pub evicted_windows: u64,
}

impl ResolutionSnapshot {
    /// Exact whole-history merge: evicted accumulator plus every
    /// retained window, oldest to newest. By construction this equals
    /// the lifetime totals of everything ever ingested.
    #[must_use]
    pub fn merged(&self) -> WindowAccum {
        let mut out = self.evicted.clone();
        for w in &self.windows {
            out.merge_from(&w.accum);
        }
        out
    }

    /// Per-window increments of `counter` over the retained index
    /// span, including implicit zeros for absent windows.
    #[must_use]
    pub fn series(&self, counter: &str) -> Vec<u64> {
        let (Some(first), Some(last)) = (self.windows.first(), self.windows.last()) else {
            return Vec::new();
        };
        let span = usize::try_from(last.index - first.index + 1).unwrap_or(usize::MAX);
        // The span is bounded by ring capacity in practice; a sparse
        // pathological span is clamped rather than allocated.
        let span = span.min(self.windows.len().max(1) * 64);
        let mut out = vec![0u64; span];
        for w in &self.windows {
            let off = usize::try_from(w.index - first.index).unwrap_or(usize::MAX);
            if let Some(slot) = out.get_mut(off) {
                *slot = w.accum.counters.get(counter).copied().unwrap_or(0);
            }
        }
        out
    }

    /// Peak-to-mean burstiness of `counter` over the retained windows,
    /// `None` until the counter has moved in this resolution.
    #[must_use]
    pub fn burstiness(&self, counter: &str) -> Option<Burstiness> {
        let series = self.series(counter);
        let total: u64 = series.iter().sum();
        if total == 0 || series.is_empty() {
            return None;
        }
        let peak = *series.iter().max().expect("non-empty");
        let mean = total as f64 / series.len() as f64;
        Some(Burstiness {
            peak,
            mean,
            peak_to_mean: peak as f64 / mean,
        })
    }

    /// Idle-interval statistics over the retained windows.
    #[must_use]
    pub fn idle_stats(&self) -> IdleStats {
        let (Some(first), Some(last)) = (self.windows.first(), self.windows.last()) else {
            return IdleStats::default();
        };
        let spanned = last.index - first.index + 1;
        let mut active_idx: Vec<u64> = self
            .windows
            .iter()
            .filter(|w| w.accum.is_active())
            .map(|w| w.index)
            .collect();
        active_idx.sort_unstable();
        let active = active_idx.len() as u64;
        let mut longest = 0u64;
        if active == 0 {
            longest = spanned;
        } else {
            longest = longest.max(active_idx[0] - first.index);
            for pair in active_idx.windows(2) {
                longest = longest.max(pair[1] - pair[0] - 1);
            }
            longest = longest.max(last.index - *active_idx.last().expect("non-empty"));
        }
        IdleStats {
            spanned,
            active,
            idle: spanned - active,
            longest_idle_streak: longest,
        }
    }
}

/// An immutable view of a [`RollupSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct RollupSnapshot {
    /// The time axis (`"wall"` or `"sim"`).
    pub axis: &'static str,
    /// Latest timestamp ingested on the axis.
    pub last_t_ns: u64,
    /// One entry per resolution, coarsest-configured order preserved.
    pub resolutions: Vec<ResolutionSnapshot>,
}

impl RollupSnapshot {
    /// The resolution named `name`, if configured.
    #[must_use]
    pub fn resolution(&self, name: &str) -> Option<&ResolutionSnapshot> {
        self.resolutions.iter().find(|r| r.resolution.name == name)
    }

    /// Renders the `/timescales` JSON document: per resolution the
    /// retained windows (with per-window rates), the exact merge, the
    /// per-counter burstiness, and the idle statistics.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let resolutions = self
            .resolutions
            .iter()
            .map(|r| {
                let secs = r.resolution.window_secs();
                let windows = r
                    .windows
                    .iter()
                    .map(|w| window_json(w, r.resolution.window_ns, secs))
                    .collect();
                let merged = self.merged_json(r);
                let counters_total = r.merged().counters;
                let burstiness = counters_total
                    .keys()
                    .filter_map(|name| {
                        r.burstiness(name).map(|b| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("peak".to_owned(), Json::Uint(b.peak)),
                                    ("mean".to_owned(), Json::Num(b.mean)),
                                    ("peak_to_mean".to_owned(), Json::Num(b.peak_to_mean)),
                                ]),
                            )
                        })
                    })
                    .collect();
                let idle = r.idle_stats();
                Json::Obj(vec![
                    ("name".to_owned(), Json::Str(r.resolution.name.to_owned())),
                    (
                        "window_ns".to_owned(),
                        r.resolution.window_ns.map_or(Json::Null, Json::Uint),
                    ),
                    ("retained".to_owned(), Json::Uint(r.windows.len() as u64)),
                    ("evicted_windows".to_owned(), Json::Uint(r.evicted_windows)),
                    ("windows".to_owned(), Json::Arr(windows)),
                    ("merged".to_owned(), merged),
                    ("burstiness".to_owned(), Json::Obj(burstiness)),
                    (
                        "idle".to_owned(),
                        Json::Obj(vec![
                            ("spanned".to_owned(), Json::Uint(idle.spanned)),
                            ("active".to_owned(), Json::Uint(idle.active)),
                            ("idle".to_owned(), Json::Uint(idle.idle)),
                            (
                                "longest_streak".to_owned(),
                                Json::Uint(idle.longest_idle_streak),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("axis".to_owned(), Json::Str(self.axis.to_owned())),
            ("last_t_ns".to_owned(), Json::Uint(self.last_t_ns)),
            ("resolutions".to_owned(), Json::Arr(resolutions)),
        ])
    }

    fn merged_json(&self, r: &ResolutionSnapshot) -> Json {
        let merged = r.merged();
        let counters = merged
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Uint(*v)))
            .collect();
        let gauges = merged
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect();
        let histograms = merged
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".to_owned(), Json::Uint(h.count)),
                        ("sum".to_owned(), Json::Uint(h.sum)),
                        (
                            "buckets".to_owned(),
                            Json::Arr(h.buckets.iter().map(|&b| Json::Uint(b)).collect()),
                        ),
                        ("p50".to_owned(), Json::Num(h.quantile(0.50))),
                        ("p95".to_owned(), Json::Num(h.quantile(0.95))),
                        ("p99".to_owned(), Json::Num(h.quantile(0.99))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_owned(), Json::Obj(counters)),
            ("gauges".to_owned(), Json::Obj(gauges)),
            ("histograms".to_owned(), Json::Obj(histograms)),
        ])
    }
}

fn window_json(w: &Window, window_ns: Option<u64>, secs: Option<f64>) -> Json {
    let counters = w
        .accum
        .counters
        .iter()
        .map(|(k, v)| {
            let rate = secs.map(|s| *v as f64 / s);
            (
                k.clone(),
                Json::Obj(vec![
                    ("delta".to_owned(), Json::Uint(*v)),
                    (
                        "rate_per_sec".to_owned(),
                        rate.map_or(Json::Null, Json::Num),
                    ),
                ]),
            )
        })
        .collect();
    let gauges = w
        .accum
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(*v)))
        .collect();
    let histograms = w
        .accum
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                Json::Obj(vec![
                    ("count".to_owned(), Json::Uint(h.count)),
                    ("sum".to_owned(), Json::Uint(h.sum)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("index".to_owned(), Json::Uint(w.index)),
        (
            "start_ns".to_owned(),
            window_ns.map_or(Json::Uint(0), |ns| Json::Uint(w.index * ns)),
        ),
        ("counters".to_owned(), Json::Obj(counters)),
        ("gauges".to_owned(), Json::Obj(gauges)),
        ("histograms".to_owned(), Json::Obj(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn set_1s_cap(cap: usize) -> RollupSet {
        RollupSet::new(
            "test",
            vec![
                Resolution::new("1s", Some(1_000_000_000), cap),
                Resolution::new("run", None, 1),
            ],
        )
    }

    #[test]
    fn point_ingestion_lands_in_the_right_windows() {
        let set = set_1s_cap(16);
        set.add_counter("c", 100, 1); // window 0
        set.add_counter("c", 1_500_000_000, 2); // window 1
        set.add_counter("c", 3_200_000_000, 4); // window 3 (window 2 idle)
        let snap = set.snapshot();
        let r = snap.resolution("1s").unwrap();
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.series("c"), vec![1, 2, 0, 4]);
        let run = snap.resolution("run").unwrap();
        assert_eq!(run.windows.len(), 1);
        assert_eq!(run.merged().counters["c"], 7);
        assert_eq!(snap.last_t_ns, 3_200_000_000);
    }

    #[test]
    fn eviction_folds_into_the_accumulator_exactly() {
        let set = set_1s_cap(2);
        for i in 0..10u64 {
            set.add_counter("c", i * 1_000_000_000, i + 1);
            set.record_hist("h", i * 1_000_000_000, 1 << i);
        }
        let snap = set.snapshot();
        let r = snap.resolution("1s").unwrap();
        assert_eq!(r.windows.len(), 2, "ring bounded at capacity");
        assert_eq!(r.evicted_windows, 8);
        let merged = r.merged();
        assert_eq!(merged.counters["c"], (1..=10).sum::<u64>());
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, (0..10).map(|i| 1u64 << i).sum::<u64>());
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        // The run wheel agrees with the 1s wheel's merge.
        let run = snap.resolution("run").unwrap().merged();
        assert_eq!(run.counters["c"], merged.counters["c"]);
        assert_eq!(run.histograms["h"], merged.histograms["h"]);
    }

    #[test]
    fn snapshot_ingestion_deltas_sum_to_registry_totals() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("req");
        let g = registry.gauge("depth");
        let h = registry.histogram("lat");
        let set = RollupSet::wall();
        // Three ticks with activity in between.
        for tick in 0..3u64 {
            c.add(5);
            g.set(tick as i64 * 2);
            h.record(10 * (tick + 1));
            set.ingest_snapshot(tick * 1_000_000_000, &registry.snapshot());
        }
        let final_snap = registry.snapshot();
        let rolled = set.snapshot();
        for r in &rolled.resolutions {
            let merged = r.merged();
            assert_eq!(
                merged.counters["req"],
                final_snap.counter("req").unwrap(),
                "resolution {}",
                r.resolution.name
            );
            assert_eq!(merged.gauges["depth"], final_snap.gauge("depth").unwrap());
            let mine = &merged.histograms["lat"];
            let theirs = final_snap.histogram("lat").unwrap();
            assert_eq!(mine.count, theirs.count);
            assert_eq!(mine.sum, theirs.sum);
            assert_eq!(mine.buckets, theirs.buckets);
        }
    }

    #[test]
    fn repeated_identical_snapshots_add_nothing() {
        let registry = MetricsRegistry::new();
        registry.counter("req").add(7);
        registry.histogram("lat").record(3);
        let set = RollupSet::wall();
        for tick in 0..5u64 {
            set.ingest_snapshot(tick * 250 * NS_PER_MS, &registry.snapshot());
        }
        let r = set.snapshot();
        let run = r.resolution("run").unwrap().merged();
        assert_eq!(run.counters["req"], 7);
        assert_eq!(run.histograms["lat"].count, 1);
    }

    #[test]
    fn burstiness_and_idle_statistics() {
        let set = set_1s_cap(32);
        // Bursty: 9 in window 0, nothing for 3 windows, 1 in window 4.
        set.add_counter("c", 0, 9);
        set.add_counter("c", 4_500_000_000, 1);
        let snap = set.snapshot();
        let r = snap.resolution("1s").unwrap();
        let b = r.burstiness("c").expect("counter moved");
        assert_eq!(b.peak, 9);
        assert!((b.mean - 2.0).abs() < 1e-12, "mean={}", b.mean);
        assert!((b.peak_to_mean - 4.5).abs() < 1e-12);
        let idle = r.idle_stats();
        assert_eq!(idle.spanned, 5);
        assert_eq!(idle.active, 2);
        assert_eq!(idle.idle, 3);
        assert_eq!(idle.longest_idle_streak, 3);
        assert!(r.burstiness("missing").is_none());
    }

    #[test]
    fn gauges_keep_the_latest_value_on_merge() {
        let set = set_1s_cap(1);
        set.set_gauge("g", 0, 5);
        set.set_gauge("g", 2_000_000_000, 9); // evicts window 0
        let r = set.snapshot();
        let merged = r.resolution("1s").unwrap().merged();
        assert_eq!(merged.gauges["g"], 9);
    }

    #[test]
    fn json_document_has_the_contracted_shape() {
        let set = RollupSet::wall();
        let registry = MetricsRegistry::new();
        registry.counter("req").add(3);
        registry.histogram("lat").record(42);
        set.ingest_snapshot(0, &registry.snapshot());
        let doc = set.to_json();
        assert_eq!(doc.get("axis").and_then(Json::as_str), Some("wall"));
        let Some(Json::Arr(resolutions)) = doc.get("resolutions") else {
            panic!("resolutions is an array");
        };
        assert!(resolutions.len() >= 2, "at least two resolutions");
        for r in resolutions {
            assert!(r.get("name").and_then(Json::as_str).is_some());
            let merged = r.get("merged").expect("merged present");
            let hist = merged
                .get("histograms")
                .and_then(|h| h.get("lat"))
                .expect("lat merged");
            assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
            assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(42));
        }
        // The document round-trips through the crate's own parser.
        let text = doc.to_string();
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn late_timestamps_clamp_without_losing_totals() {
        let set = set_1s_cap(2);
        set.add_counter("c", 5_000_000_000, 1);
        set.add_counter("c", 6_000_000_000, 1);
        // Older than every retained window: clamps into the oldest.
        set.add_counter("c", 0, 1);
        let r = set.snapshot();
        assert_eq!(r.resolution("1s").unwrap().merged().counters["c"], 3);
    }

    #[test]
    fn concurrent_ingestion_and_snapshots_never_deadlock() {
        // A sampler tick (`ingest_snapshot`) racing a `/timescales`
        // scrape (`snapshot`) once took the set's two mutexes in
        // opposite orders; both sides must now always finish.
        let set = std::sync::Arc::new(RollupSet::wall());
        let registry = MetricsRegistry::new();
        registry.counter("c").add(1);
        let snap = registry.snapshot();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let ingester = {
            let set = std::sync::Arc::clone(&set);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    set.ingest_snapshot(i * 1_000_000, &snap);
                }
                done.send(()).expect("test thread waits");
            })
        };
        let reader = {
            let set = std::sync::Arc::clone(&set);
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let _ = set.snapshot();
                }
                done_tx.send(()).expect("test thread waits");
            })
        };
        for _ in 0..2 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("ingestion and snapshots deadlocked");
        }
        ingester.join().expect("ingester finishes");
        reader.join().expect("reader finishes");
        let run = set.snapshot();
        assert_eq!(run.resolution("run").unwrap().merged().counters["c"], 1);
    }
}
