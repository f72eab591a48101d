//! The `placed` workloads: a closed loop of pre-generated JSONL wire
//! lines through `ServeEvent::parse` → `PlacementServer` →
//! `render::epoch_line`, one epoch at a time.
//!
//! Before anything is timed, the stream is generated from the seed
//! against a shadow copy of the demand, so the server only ever sees
//! wire lines. The feeder hands the next epoch over only after the
//! previous diff line is rendered. An epoch's latency runs from handing
//! its first line to the parser until its diff line is rendered — the
//! oldest delta's wait.

use crate::{
    fleetd_analyze, median, millis, peak_rss_mb, quantile, run_path, secs, Fnv, Opts, Outcome,
    TraceBuffer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_bench::fat_linear_power_instance;
use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::IncrementalDp;
use replica_engine::output::OutputFormat;
use replica_model::{Instance, Placement};
use replica_obs::{Obs, Span, Verbosity};
use replica_serve::{render, Generator, PlacementServer, Preset, ServeConfig, ServeEvent};
use replica_tree::{ClientId, FlatTree};
use std::sync::Arc;
use std::time::Instant;

/// The deterministic diff rendering (the one CI byte-diffs).
const FORMAT: OutputFormat = OutputFormat::JsonDeterministic;

/// One serve workload: a paper fat tree under α = 1 power with
/// `nodes / 10` pre-existing servers, and its delta stream.
pub struct ServeWorkload {
    pub name: &'static str,
    pub nodes: usize,
    /// Deltas per epoch: 1 is the single-delta rule (one client whose
    /// volume is guaranteed to change), more is the quiet-churn preset.
    pub rate: u64,
    /// The reported tail quantile of the epoch latency; the stream is
    /// long enough to hold ten epochs beyond it.
    pub tail_q: f64,
    pub tail_name: &'static str,
    /// Set-up repetitions before the timed cycles; every segment served
    /// adds one (the median is reported).
    pub setup_reps: usize,
    /// Independent stream segments, each served by a fresh server from
    /// the initial demand.
    pub segments: usize,
    /// Epochs per segment.
    pub epochs: usize,
    /// Every this many epochs of a segment (and at its last) the first
    /// cycle checks the live placement against a from-scratch solve.
    pub sample_every: usize,
    /// Epochs whose diff lines are re-derived by an `--oracle` server.
    pub prefix: usize,
}

pub const POINT: ServeWorkload = ServeWorkload {
    name: "serve-point-1e5",
    nodes: 100_000,
    rate: 1,
    tail_q: 0.95,
    tail_name: "epoch_p95_ms",
    setup_reps: 3,
    segments: 8,
    epochs: 32,
    sample_every: 16,
    prefix: 2,
};

pub const CHURN: ServeWorkload = ServeWorkload {
    name: "serve-churn-1e3",
    nodes: 1_000,
    rate: 512,
    tail_q: 0.99,
    tail_name: "epoch_p99_ms",
    setup_reps: 41,
    segments: 1,
    epochs: 1024,
    sample_every: 256,
    prefix: 64,
};

/// The served tree is fixed per workload (the seed `serve_trajectory`
/// uses for `BENCH_serve.json`); `--seed` drives the delta stream.
/// Random 10⁵-node trees differ by up to 3× in root-front size, so a
/// per-seed tree would measure the tree draw rather than the server.
const INSTANCE_SEED: u64 = 9;

fn build_instance(w: &ServeWorkload) -> Instance {
    fat_linear_power_instance(INSTANCE_SEED, w.nodes, w.nodes / 10)
}

/// The load generator: the seeded delta stream plus the shadow demand
/// it is drawn against.
struct Feed {
    shadow: Instance,
    source: Source,
}

enum Source {
    Single { rng: StdRng, clients: usize },
    Churn { generator: Generator, rate: u64 },
}

impl Feed {
    fn new(w: &ServeWorkload, seed: u64, segment: usize) -> Feed {
        let shadow = build_instance(w);
        let stream_seed = (seed ^ 0x9e37_79b9_7f4a_7c15)
            .wrapping_add((segment as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        let source = if w.rate == 1 {
            Source::Single {
                rng: StdRng::seed_from_u64(stream_seed),
                clients: shadow.tree().client_count(),
            }
        } else {
            Source::Churn {
                generator: Generator::new(Preset::QuietChurn, shadow.tree(), stream_seed, w.rate),
                rate: w.rate,
            }
        };
        Feed { shadow, source }
    }

    /// Draws one epoch's deltas, applies each to the shadow demand and
    /// hands it to `emit`.
    fn draw(&mut self, mut emit: impl FnMut(ClientId, u64)) {
        let Feed { shadow, source } = self;
        match source {
            Source::Single { rng, clients } => {
                let client = ClientId::from_index(rng.random_range(0..*clients));
                let mut volume = rng.random_range(0..=9u64);
                if volume == shadow.tree().requests(client) {
                    volume = (volume + 1) % 10;
                }
                shadow.tree_mut().set_requests(client, volume);
                emit(client, volume);
            }
            Source::Churn { generator, rate } => {
                for _ in 0..*rate {
                    let delta = generator
                        .next_delta(shadow.tree())
                        .expect("instances have clients");
                    shadow.tree_mut().set_requests(delta.client, delta.volume);
                    emit(delta.client, delta.volume);
                }
            }
        }
    }

    /// One epoch's deltas.
    fn next_epoch(&mut self) -> Vec<(ClientId, u64)> {
        let mut deltas = Vec::new();
        self.draw(|client, volume| deltas.push((client, volume)));
        deltas
    }

    /// The first `n` epochs of the stream.
    fn epochs(mut self, n: usize) -> Vec<Vec<(ClientId, u64)>> {
        (0..n).map(|_| self.next_epoch()).collect()
    }
}

/// One epoch as wire text: its delta lines, then the epoch mark.
fn wire(deltas: &[(ClientId, u64)]) -> String {
    let mut text = String::new();
    for &(client, volume) in deltas {
        text.push_str(&ServeEvent::Delta { client, volume }.to_json_line());
        text.push('\n');
    }
    text.push_str(&ServeEvent::Epoch.to_json_line());
    text
}

/// What one served epoch cost, phase by phase (ms) and in volume.
#[derive(Clone, Copy, Default)]
struct EpochRow {
    /// Position of the epoch in the stream (0-based).
    index: usize,
    traced: bool,
    wall: f64,
    parse: f64,
    apply: f64,
    end_epoch: f64,
    solve: f64,
    render: f64,
    in_bytes: f64,
    out_bytes: f64,
    events: f64,
    changed: f64,
    dirty: f64,
    recomputed: f64,
    diff_changes: f64,
}

/// The session a run drives: the server plus its wire bookkeeping.
struct Session {
    server: PlacementServer,
    clients: usize,
    line_no: usize,
    events: Vec<(ClientId, u64)>,
    attempted: u64,
    failed: u64,
}

impl Session {
    fn new(server: PlacementServer) -> Session {
        Session {
            clients: server.tree().client_count(),
            server,
            line_no: 0,
            events: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Serves one epoch's lines: parse them all, ingest the deltas,
    /// solve at the epoch mark and render the diff line. Rejected lines
    /// and failed solves count as failures; the loop goes on.
    fn epoch(&mut self, text: &str, span: &Span) -> (EpochRow, Option<String>) {
        let mut row = EpochRow {
            traced: span.enabled(),
            ..EpochRow::default()
        };
        let start = Instant::now();
        let mut marks = 0;
        {
            let _wire = span.child("serve.wire", "");
            self.events.clear();
            for line in text.lines() {
                self.line_no += 1;
                match ServeEvent::parse(line, self.line_no) {
                    Ok(ServeEvent::Delta { client, volume }) if client.index() < self.clients => {
                        self.events.push((client, volume))
                    }
                    Ok(ServeEvent::Epoch) => marks += 1,
                    _ => self.failed += 1,
                }
            }
        }
        let parsed = Instant::now();
        {
            let _ingest = span.child("serve.server.ingest", "");
            for &(client, volume) in &self.events {
                self.server.apply_delta(client, volume);
            }
        }
        let ingested = Instant::now();
        let report = {
            let _solve = span.child("serve.server.end_epoch", "");
            (marks > 0).then(|| self.server.end_epoch())
        };
        let solved = Instant::now();
        let line = match &report {
            Some(Ok(report)) => {
                let _render = span.child("serve.render", "");
                Some(render::epoch_line(report, FORMAT))
            }
            _ => None,
        };
        let end = Instant::now();

        self.attempted += text.lines().count() as u64;
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        row.wall = ms(start, end);
        row.parse = ms(start, parsed);
        row.apply = ms(parsed, ingested);
        row.end_epoch = ms(ingested, solved);
        row.render = ms(solved, end);
        row.in_bytes = (text.len() + 1) as f64;
        match report {
            Some(Ok(report)) => {
                row.solve = report.latency_ms;
                row.events = report.events as f64;
                row.changed = report.changed as f64;
                row.dirty = report.dirty as f64;
                row.recomputed = report.recomputed as f64;
                row.diff_changes = (report.diff.adds.len()
                    + report.diff.removals.len()
                    + report.diff.remodes.len()) as f64;
            }
            Some(Err(_)) => self.failed += 1,
            None => {}
        }
        if let Some(line) = &line {
            row.out_bytes = (line.len() + 1) as f64;
        }
        (row, line)
    }
}

/// One epoch's live placement, kept for the output check.
struct Sample {
    segment: usize,
    epoch: usize,
    placement: Placement,
    cost: f64,
    power: f64,
}

/// Set-up durations, seconds, one entry per set-up.
#[derive(Default)]
struct SetupTimes {
    build_s: Vec<f64>,
    new_s: Vec<f64>,
    total_s: Vec<f64>,
}

/// One set-up: instance build, server build (tables + epoch 0) and the
/// epoch-0 line.
fn set_up(w: &ServeWorkload, times: &mut SetupTimes) -> (PlacementServer, String) {
    let t = Instant::now();
    let instance = build_instance(w);
    times.build_s.push(secs(t));
    let t_new = Instant::now();
    let (server, report) =
        PlacementServer::new(instance, ServeConfig::default()).expect("epoch 0 is feasible");
    let line = render::epoch_line(&report, FORMAT);
    times.new_s.push(secs(t_new));
    times.total_s.push(secs(t));
    (server, line)
}

pub fn run(w: &ServeWorkload, opts: &Opts) -> Outcome {
    let mut out = Outcome {
        params: vec![
            ("nodes", w.nodes.to_string()),
            ("instance_seed", INSTANCE_SEED.to_string()),
            ("pre_existing", (w.nodes / 10).to_string()),
            ("power", "\"energy_proportional(P_s=10, alpha=1)\"".into()),
            ("deltas_per_epoch", w.rate.to_string()),
            (
                "stream",
                format!(
                    "\"{}\"",
                    if w.rate == 1 {
                        "single-delta"
                    } else {
                        Preset::QuietChurn.label()
                    }
                ),
            ),
            ("format", format!("\"{}\"", FORMAT.label())),
            ("segments", w.segments.to_string()),
            ("epochs_per_segment", w.epochs.to_string()),
        ],
        ..Outcome::default()
    };

    // The stream's deltas, drawn before anything is timed (each epoch's
    // wire text is formatted just before it is handed over). Segments
    // start from the initial demand: the single-delta rule drifts the
    // demand upwards, and short segments keep that drift — which
    // differs from seed to seed — from dominating the figures.
    let stream: Vec<_> = (0..w.segments)
        .map(|segment| Feed::new(w, opts.seed, segment).epochs(w.epochs))
        .collect();

    // Set-up: extra repetitions first, then one per segment served.
    let mut setup = SetupTimes::default();
    for _ in 0..w.setup_reps {
        drop(set_up(w, &mut setup));
    }

    // Layer probes of the set-up path (traced runs only).
    let mut layout_ms = Vec::new();
    let mut table_entries = 0.0;
    if opts.trace {
        let instance = build_instance(w);
        for _ in 0..w.setup_reps {
            let t = Instant::now();
            std::hint::black_box(FlatTree::new(instance.tree()));
            layout_ms.push(millis(t));
        }
        table_entries = IncrementalDp::new(instance).table_entries() as f64;
    }

    let trace = Arc::new(TraceBuffer::default());
    let obs = if opts.trace {
        Obs::new(trace.clone(), Verbosity::Solve)
    } else {
        Obs::noop()
    };
    let root = obs.span("campaign", w.name);

    // Cycles: every segment of the stream, each on a fresh server,
    // again and again until time is up, so every version of the code is
    // timed on the same epochs however many it gets through.
    let mut rows = Vec::new();
    let mut samples = Vec::new();
    let mut cycle_digests = Vec::new();
    let mut prefix_digest = None;
    let start = Instant::now();
    for cycle in 0.. {
        let mut digest = Fnv::default();
        let mut complete = true;
        for (segment, epochs) in stream.iter().enumerate() {
            let (server, line0) = set_up(w, &mut setup);
            let mut session = Session::new(server);
            digest.line(&line0);
            for (i, deltas) in epochs.iter().enumerate() {
                if cycle > 0 && secs(start) >= opts.seconds {
                    complete = false;
                    break;
                }
                let epoch = i + 1;
                // Traced runs trace every other epoch, so the untraced
                // epochs in between are the overhead baseline.
                let span = if opts.trace && rows.len() % 2 == 1 {
                    root.child("epoch", epoch.to_string())
                } else {
                    Span::disabled()
                };
                let text = wire(deltas);
                let (row, line) = session.epoch(&text, &span);
                drop(span);
                rows.push(EpochRow {
                    index: segment * w.epochs + i,
                    ..row
                });
                if let Some(line) = line {
                    digest.line(&line);
                }
                if cycle == 0 {
                    if segment == 0 && epoch == w.prefix {
                        prefix_digest = Some(digest.0);
                    }
                    if epoch % w.sample_every == 0 || epoch == epochs.len() {
                        samples.push(sample(&session.server, segment, epoch));
                    }
                }
            }
            out.attempted += session.attempted;
            out.failed += session.failed;
            if !complete {
                break;
            }
        }
        if complete {
            cycle_digests.push(digest.0);
        }
        if secs(start) >= opts.seconds {
            break;
        }
    }
    let peak_mb = peak_rss_mb();
    drop(root);

    check(w, opts, &samples, prefix_digest, &mut out);
    out.check(cycle_digests.iter().all(|d| *d == cycle_digests[0]), || {
        "two cycles over the same stream rendered different diff lines".into()
    });
    out.params.push(("cycles", cycle_digests.len().to_string()));
    out.params.push(("epochs_served", rows.len().to_string()));
    out.params.push((
        "prefix_fnv",
        format!("\"{:016x}\"", prefix_digest.unwrap_or(0)),
    ));
    out.params
        .push(("stream_fnv", format!("\"{:016x}\"", cycle_digests[0])));
    let SetupTimes {
        build_s,
        new_s,
        total_s: setup_s,
    } = setup;

    let col = |f: fn(&EpochRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    if !opts.trace {
        // Each stream epoch's median latency over the cycles, then the
        // quantiles (and the delta rate) over the stream: every epoch
        // weighs the same however many cycles a run gets through, and
        // noise bursts are voted out.
        let mut per_epoch = vec![(0.0, Vec::new()); w.segments * w.epochs];
        for r in &rows {
            per_epoch[r.index].0 = r.events;
            per_epoch[r.index].1.push(r.wall);
        }
        per_epoch.retain(|(_, walls)| !walls.is_empty());
        let typical: Vec<f64> = per_epoch.iter().map(|(_, walls)| median(walls)).collect();
        let (p50, tail) = (median(&typical), quantile(&typical, w.tail_q));
        let rate = per_epoch.iter().map(|(events, _)| events).sum::<f64>()
            / (typical.iter().sum::<f64>() / 1e3);
        out.metric("p50_ms", p50, "ms");
        out.metric("tail_ms", tail, "ms");
        out.metric("items_per_s", rate, "1/s");
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_mb, "MiB");
        out.detail("epoch_p50_ms", p50, "ms");
        out.detail(w.tail_name, tail, "ms");
        out.detail("deltas_per_s", rate, "1/s");
        out.detail("setup_s", median(&setup_s), "s");
        out.detail("peak_rss_mb", peak_mb, "MiB");
        out.detail(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        return out;
    }

    let traced_wall = |traced: bool| {
        median(
            &rows
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = traced_wall(true) / traced_wall(false);
    let trace_path = run_path(&format!("{}.trace.jsonl", w.name));
    if let Err(e) = trace.write(&trace_path) {
        out.errors.push(format!("cannot write the trace: {e}"));
    }
    let (analyze_ms, analysis) = match fleetd_analyze(&trace_path, "table") {
        Ok(done) => done,
        Err(e) => {
            out.errors.push(e);
            (0.0, String::new())
        }
    };
    eprintln!("{analysis}");
    let trace_bytes = std::fs::metadata(&trace_path).map_or(0, |m| m.len()) as f64;
    let _ = std::fs::remove_file(&trace_path);
    for layer in [
        "serve.wire",
        "serve.server.ingest",
        "serve.server.end_epoch",
        "serve.render",
    ] {
        out.check(analysis.contains(layer), || {
            format!("fleetd analyze reports no {layer} span")
        });
    }

    let parse = median(&col(|r| r.parse));
    let apply = median(&col(|r| r.apply));
    let solve = median(&col(|r| r.solve));
    let diff = median(&col(|r| r.end_epoch - r.solve));
    let render_ms = median(&col(|r| r.render));
    let changed: f64 = rows.iter().map(|r| r.changed).sum();
    let deltas: f64 = rows.iter().map(|r| r.events).sum();
    out.metric("model.build_s", median(&build_s), "s");
    out.metric("tree.layout_ms", median(&layout_ms), "ms");
    out.metric("setup.prepare_ms", median(&new_s) * 1e3, "ms");
    out.metric("wire.parse_ms", parse, "ms");
    out.metric("wire.bytes", median(&col(|r| r.in_bytes)), "bytes");
    out.metric("ingest.apply_ms", apply, "ms");
    out.metric("core.solve_ms", solve, "ms");
    out.metric("core.recomputed", median(&col(|r| r.recomputed)), "count");
    out.metric("core.table_entries", table_entries, "count");
    out.metric("combine_ms", diff, "ms");
    out.metric("render_ms", render_ms, "ms");
    out.metric("render.bytes", median(&col(|r| r.out_bytes)), "bytes");
    out.metric("noncore_ms", median(&col(|r| r.wall - r.solve)), "ms");
    out.metric("useful_frac", changed / deltas, "ratio");
    out.metric("obs.trace_overhead_ratio", overhead, "ratio");
    out.metric("obs.analyze_ms", analyze_ms, "ms");
    out.metric("obs.trace_bytes", trace_bytes, "bytes");

    out.detail("core.incremental.solve_ms", solve, "ms");
    out.detail(
        "core.incremental.recomputed",
        median(&col(|r| r.recomputed)),
        "count",
    );
    out.detail("core.incremental.dirty", median(&col(|r| r.dirty)), "count");
    out.detail("core.incremental.table_entries", table_entries, "count");
    out.detail("serve.wire.parse_ms", parse, "ms");
    out.detail("serve.server.ingest_ms", apply, "ms");
    out.detail("serve.server.changed_frac", changed / deltas, "ratio");
    out.detail("serve.server.diff_ms", diff, "ms");
    out.detail(
        "serve.server.diff_changes",
        median(&col(|r| r.diff_changes)),
        "count",
    );
    out.detail("serve.render.epoch_line_ms", render_ms, "ms");
    out.detail("serve.render.bytes", median(&col(|r| r.out_bytes)), "bytes");
    out.detail("model.instance.build_s", median(&build_s), "s");
    out.detail("serve.server.new_s", median(&new_s), "s");
    out.detail("obs.trace_overhead_frac", overhead - 1.0, "ratio");
    out
}

fn sample(server: &PlacementServer, segment: usize, epoch: usize) -> Sample {
    let (placement, cost, power) = server.current();
    Sample {
        segment,
        epoch,
        placement: placement.clone(),
        cost,
        power,
    }
}

/// The output checks, outside the timed region:
/// * every sampled epoch's live placement, cost and power are
///   bit-identical to a from-scratch pruned DP over the same demand,
///   regenerated from the seed;
/// * the diff lines of the first segment's first `w.prefix` epochs hash
///   to the same FNV digest when an `--oracle` server (a from-scratch
///   solve per epoch) serves the same lines.
fn check(
    w: &ServeWorkload,
    opts: &Opts,
    samples: &[Sample],
    prefix: Option<u64>,
    out: &mut Outcome,
) {
    let mut scratch = PrunedScratch::default();
    for segment in 0..w.segments {
        let mut feed = Feed::new(w, opts.seed, segment);
        let mut at = 0;
        for s in samples.iter().filter(|s| s.segment == segment) {
            while at < s.epoch {
                feed.draw(|_, _| {});
                at += 1;
            }
            let same =
                match solve_min_power_bounded_cost_in(&feed.shadow, f64::INFINITY, &mut scratch) {
                    Ok((placement, cost, power)) => {
                        placement == s.placement
                            && cost.to_bits() == s.cost.to_bits()
                            && power.to_bits() == s.power.to_bits()
                    }
                    Err(_) => false,
                };
            out.check(same, || {
                format!(
                    "segment {segment} epoch {}: the live placement differs from a from-scratch solve",
                    s.epoch
                )
            });
        }
    }

    let config = ServeConfig {
        oracle: true,
        ..ServeConfig::default()
    };
    let (oracle, report) =
        PlacementServer::new(build_instance(w), config).expect("epoch 0 is feasible");
    let mut digest = Fnv::default();
    digest.line(&render::epoch_line(&report, FORMAT));
    let mut session = Session::new(oracle);
    let mut feed = Feed::new(w, opts.seed, 0);
    for _ in 0..w.prefix {
        if let (_, Some(line)) = session.epoch(&wire(&feed.next_epoch()), &Span::disabled()) {
            digest.line(&line);
        }
    }
    out.check(prefix == Some(digest.0) && session.failed == 0, || {
        format!(
            "the first {} epochs' json-det digest differs from an --oracle server's",
            w.prefix
        )
    });
}
