//! The `placed` command line: one long-running serve session per
//! invocation.
//!
//! ```text
//! placed --generate subtree-mix --nodes 1000 --epochs 50 --rate 32
//! placed --replay deltas.jsonl --format json-det --out run.jsonl
//! some-feed | placed --stdin --format table --trace serve.jsonl
//! ```
//!
//! The session is: build the instance (the shared bench recipes — α = 1
//! energy-proportional by default, α = 3 with `--alpha 3`), solve epoch
//! 0, then ingest events from exactly one source until it ends. Every
//! epoch mark re-solves and prints one line in the chosen format; the
//! stream's end prints a summary. With `--trace` the run also emits a
//! `replica-obs` JSONL trace — a `campaign` span over the session, one
//! `solve` span per epoch, progress heartbeats, counters, and a final
//! `serve.decision_latency_ms` histogram (p50/p90/p99) — which
//! `fleetd analyze` reads back like any fleet trace.
//!
//! Exit codes: `0` served to the end of stream, `1` runtime failure
//! (bad replay line, infeasible bound, I/O), `2` usage.

use crate::gen::{Generator, Preset};
use crate::render;
use crate::server::{PlacementServer, ServeConfig};
use crate::wire::ServeEvent;
use replica_bench::{fat_linear_power_instance, fat_power_instance};
use replica_engine::output::OutputFormat;
use replica_model::Instance;
use replica_obs::{MetricAccumulator, Obs, Span, Verbosity};
use std::collections::HashMap;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "\
placed — long-running incremental placement server

USAGE:
    placed [INSTANCE FLAGS] [SOURCE] [POLICY] [OUTPUT] [TELEMETRY]
    placed help

INSTANCE:
    --nodes N           internal nodes (paper fat tree)   [default: 200]
    --seed S            instance + generator seed         [default: 42]
    --alpha A           power exponent: 1 | 3             [default: 1]
    --pre K             pre-existing servers at mode 1    [default: nodes/10]

SOURCE (exactly one; deltas are absolute per-client volumes):
    --generate PRESET   walk-drift | quiet-churn | subtree-mix
                        (the default source: walk-drift)
    --replay FILE       JSONL event file (see below)
    --stdin             JSONL events on standard input

    --rate N            generator events per epoch        [default: 16]
    --epochs N          generator epochs                  [default: 10]

POLICY:
    --bound X           cost budget per solve             [default: unconstrained]
    --warm-threshold F  dirty fraction above which an epoch answers with
                        the warm-started greedy instead of the exact
                        incremental DP                    [default: 1.0 = never]
    --oracle            re-solve from scratch every epoch (baseline; the
                        deterministic outputs byte-match an incremental run)

OUTPUT:
    --format F          table | table-det | csv | json | json-det
                                                          [default: table]
    --out FILE          write epoch lines + summary to FILE

TELEMETRY:
    --trace FILE        JSONL obs trace (campaign/solve spans, progress,
                        counters, decision-latency histogram with
                        p50/p90/p99) — readable by `fleetd analyze`

WIRE FORMAT (one JSON object per line):
    {\"event\":\"delta\",\"client\":3,\"volume\":7}
    {\"event\":\"epoch\"}
    {\"event\":\"stop\"}

A stream that ends with un-solved deltas gets one implicit final epoch;
`stop` shuts down without it.";

const FLAGS: &[&str] = &[
    "nodes",
    "seed",
    "alpha",
    "pre",
    "generate",
    "replay",
    "rate",
    "epochs",
    "bound",
    "warm-threshold",
    "format",
    "out",
    "trace",
];

const SWITCHES: &[&str] = &["--stdin", "--oracle"];

/// Runs `placed` and returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    if args.first().map(String::as_str) == Some("help")
        || args.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{USAGE}");
        return 0;
    }
    match run(&args) {
        Ok(()) => 0,
        Err(CliError::Usage(message)) => {
            eprintln!("placed: {message}\n\n{USAGE}");
            2
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("placed: {message}");
            1
        }
    }
}

enum CliError {
    Usage(String),
    Runtime(String),
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if SWITCHES.contains(&arg.as_str()) {
                switches.push(arg.clone());
            } else if let Some(name) = arg.strip_prefix("--") {
                if !FLAGS.contains(&name) {
                    return Err(CliError::Usage(format!(
                        "unknown flag --{name} (run `placed help`)"
                    )));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                flags.insert(name.to_string(), value.clone());
            } else {
                return Err(CliError::Usage(format!("unexpected argument {arg:?}")));
            }
        }
        Ok(Args { flags, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name}: cannot parse {text:?}"))),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

enum Source {
    Generate(Preset),
    Replay(String),
    Stdin,
}

fn run(raw: &[String]) -> Result<(), CliError> {
    let args = Args::parse(raw)?;

    let nodes: usize = args.parsed("nodes", 200)?;
    let seed: u64 = args.parsed("seed", 42)?;
    let alpha: u32 = args.parsed("alpha", 1)?;
    let pre: usize = args.parsed("pre", nodes / 10)?;
    let rate: u64 = args.parsed("rate", 16)?;
    let epochs: u64 = args.parsed("epochs", 10)?;
    let config = ServeConfig {
        cost_bound: args.parsed("bound", f64::INFINITY)?,
        warm_threshold: args.parsed("warm-threshold", 1.0)?,
        oracle: args.has("--oracle"),
    };
    let format = match args.get("format") {
        None => OutputFormat::Table,
        Some(name) => {
            OutputFormat::parse(name).map_err(|e| CliError::Usage(format!("--format: {e}")))?
        }
    };

    let mut sources = Vec::new();
    if let Some(preset) = args.get("generate") {
        let preset = Preset::parse(preset).ok_or_else(|| {
            CliError::Usage(format!(
                "--generate: unknown preset {preset:?} (walk-drift | quiet-churn | subtree-mix)"
            ))
        })?;
        sources.push(Source::Generate(preset));
    }
    if let Some(path) = args.get("replay") {
        sources.push(Source::Replay(path.to_string()));
    }
    if args.has("--stdin") {
        sources.push(Source::Stdin);
    }
    if sources.len() > 1 {
        return Err(CliError::Usage(
            "--generate, --replay and --stdin are mutually exclusive".into(),
        ));
    }
    let source = sources.pop().unwrap_or(Source::Generate(Preset::WalkDrift));

    let instance = match alpha {
        1 => fat_linear_power_instance(seed, nodes, pre),
        3 => fat_power_instance(seed, nodes, pre),
        other => {
            return Err(CliError::Usage(format!(
                "--alpha: {other} is not a recipe (1 = energy-proportional, 3 = cubic)"
            )))
        }
    };

    let obs = match args.get("trace") {
        None => Obs::noop(),
        Some(path) => Obs::jsonl(Path::new(path), Verbosity::Solve)
            .map_err(|e| CliError::Runtime(format!("--trace {path}: {e}")))?,
    };

    let mut out: BufWriter<Box<dyn Write>> = BufWriter::new(match args.get("out") {
        None => Box::new(std::io::stdout()),
        Some(path) => Box::new(
            std::fs::File::create(path)
                .map_err(|e| CliError::Runtime(format!("--out {path}: {e}")))?,
        ),
    });

    let source_label = match &source {
        Source::Generate(preset) => format!("generate:{}", preset.label()),
        Source::Replay(path) => format!("replay:{path}"),
        Source::Stdin => "stdin".to_string(),
    };
    let total_epochs = match &source {
        Source::Generate(_) => epochs as usize,
        _ => 0, // unknown ahead of time
    };

    let campaign = obs.span(
        "campaign",
        format!("serve {source_label} nodes={nodes} alpha={alpha} seed={seed}"),
    );
    let mut session = Session {
        server: None,
        out: &mut out,
        format,
        obs: &obs,
        campaign,
        latency: MetricAccumulator::default(),
        total_epochs,
        started: Instant::now(),
    };
    session.start(instance, config)?;

    match source {
        Source::Generate(preset) => {
            let mut generator = Generator::new(
                preset,
                session.server().tree(),
                // Decorrelate the demand stream from the instance draw.
                seed ^ 0x9e37_79b9_7f4a_7c15,
                rate,
            );
            for _ in 0..epochs {
                for _ in 0..rate {
                    let Some(delta) = generator.next_delta(session.server().tree()) else {
                        break;
                    };
                    session.server_mut().apply_delta(delta.client, delta.volume);
                }
                session.epoch()?;
            }
        }
        Source::Replay(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::Runtime(format!("--replay {path}: {e}")))?;
            session.consume(text.lines().map(|l| Ok(l.to_string())))?;
        }
        Source::Stdin => {
            let stdin = std::io::stdin();
            session.consume(stdin.lock().lines())?;
        }
    }

    session.finish()?;
    drop(session);
    out.flush()
        .map_err(|e| CliError::Runtime(format!("writing output: {e}")))?;
    Ok(())
}

/// One serve session: the server plus everything that observes it.
struct Session<'a> {
    server: Option<PlacementServer>,
    out: &'a mut BufWriter<Box<dyn Write>>,
    format: OutputFormat,
    obs: &'a Obs,
    campaign: Span,
    latency: MetricAccumulator,
    total_epochs: usize,
    started: Instant,
}

impl Session<'_> {
    fn server(&self) -> &PlacementServer {
        self.server.as_ref().expect("session started")
    }

    fn server_mut(&mut self) -> &mut PlacementServer {
        self.server.as_mut().expect("session started")
    }

    fn emit(&mut self, line: &str) -> Result<(), CliError> {
        writeln!(self.out, "{line}").map_err(|e| CliError::Runtime(format!("writing output: {e}")))
    }

    /// Builds the server (epoch 0 solves inside) and emits its report.
    fn start(&mut self, instance: Instance, config: ServeConfig) -> Result<(), CliError> {
        if let Some(header) = render::header(self.format) {
            self.emit(&header)?;
        }
        let span = self
            .campaign
            .child("solve", "epoch 0 (initial)".to_string());
        let (server, report) = PlacementServer::new(instance, config)
            .map_err(|e| CliError::Runtime(format!("initial solve: {e}")))?;
        drop(span);
        self.server = Some(server);
        self.after_epoch(&report)
    }

    /// Solves the pending epoch and emits its report.
    fn epoch(&mut self) -> Result<(), CliError> {
        let n = self.server().totals().epochs;
        let span = self.campaign.child("solve", format!("epoch {n}"));
        let report = self
            .server_mut()
            .end_epoch()
            .map_err(|e| CliError::Runtime(format!("epoch solve: {e}")))?;
        drop(span);
        self.after_epoch(&report)
    }

    fn after_epoch(&mut self, report: &crate::server::EpochReport) -> Result<(), CliError> {
        self.latency.push(report.latency_ms);
        self.emit(&render::epoch_line(report, self.format))?;
        self.obs.progress(
            self.server().totals().epochs as usize,
            self.total_epochs,
            self.started.elapsed().as_secs_f64(),
        );
        Ok(())
    }

    /// Drains a JSONL event stream. EOF with un-solved deltas triggers
    /// one implicit final epoch; `stop` does not.
    fn consume(
        &mut self,
        lines: impl Iterator<Item = std::io::Result<String>>,
    ) -> Result<(), CliError> {
        let clients = self.server().tree().client_count();
        for (idx, line) in lines.enumerate() {
            let line_no = idx + 1;
            let line =
                line.map_err(|e| CliError::Runtime(format!("reading line {line_no}: {e}")))?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            match ServeEvent::parse(trimmed, line_no).map_err(CliError::Runtime)? {
                ServeEvent::Delta { client, volume } => {
                    if client.index() >= clients {
                        return Err(CliError::Runtime(format!(
                            "line {line_no}: client {} out of range (instance has {clients})",
                            client.index()
                        )));
                    }
                    // Checked before ingest: if the root total fits, every
                    // node and subtree sum below it fits too.
                    let server = self.server();
                    let fits = server
                        .total_demand()
                        .checked_sub(server.tree().requests(client))
                        .and_then(|rest| rest.checked_add(volume))
                        .is_some();
                    if !fits {
                        return Err(CliError::Runtime(format!(
                            "line {line_no}: volume {volume} for client {} overflows the total demand",
                            client.index()
                        )));
                    }
                    self.server_mut().apply_delta(client, volume);
                }
                ServeEvent::Epoch => self.epoch()?,
                ServeEvent::Stop => return Ok(()),
            }
        }
        if self.server().pending_events() > 0 {
            self.epoch()?;
        }
        Ok(())
    }

    /// Emits the summary and flushes telemetry.
    fn finish(&mut self) -> Result<(), CliError> {
        let stats = self.latency.stats();
        {
            let server = self.server();
            let totals = *server.totals();
            let (placement, cost, power) = server.current();
            let servers = placement.server_count();
            let line = render::summary(&totals, cost, power, servers, &stats, self.format);
            self.emit(&line)?;
            self.obs.counter_add("serve.epochs", totals.epochs);
            self.obs.counter_add("serve.events", totals.events);
            self.obs.counter_add("serve.changed", totals.changed);
            self.obs.counter_add("serve.adds", totals.adds);
            self.obs.counter_add("serve.removals", totals.removals);
        }
        self.obs.flush_counters();
        self.obs.histogram("serve.decision_latency_ms", "ms", stats);
        // End the campaign span before the final flush so the trace is
        // complete on disk when the process exits.
        self.campaign = Span::disabled();
        self.obs.flush();
        Ok(())
    }
}
