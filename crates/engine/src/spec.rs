//! The declarative campaign API: one serializable, **validated**
//! description of any run.
//!
//! The paper's contribution is an evaluation *matrix* — placements ×
//! update strategies × tree/demand families — and before this module
//! every layer described such a matrix its own way: `fleetd` had a
//! `Campaign`, the engine had [`FleetConfig`], and every experiment
//! binary re-wired scenarios, solvers and seeds by hand with stringly
//! errors. [`CampaignSpec`] is the single description all of them load:
//!
//! * **Serializable** — a spec is plain JSON ([`CampaignSpec::load`] /
//!   [`CampaignSpec::save`]), with every knob optional except the
//!   scenario selection: named scenario sets (`standard` / `churn` /
//!   `extended` at a node count) or inline [`Scenario`] lists, the
//!   solver lineup, the reference solver, the fleet seed,
//!   `batch_jobs`/`threads`, an optional cost bound and budget-sweep
//!   grid, and the preferred [`OutputFormat`]. Committed examples live
//!   under `examples/campaigns/` at the repository root.
//! * **Validated at load time** — [`CampaignSpec::validate`] checks the
//!   whole description against a [`Registry`] and the scenario families
//!   *before any job runs*, returning a typed [`SpecError`] whose
//!   messages are actionable (unknown solver names come with a
//!   "did you mean `dp_power`?" suggestion). A valid spec resolves into
//!   a [`Campaign`]: the self-contained, inline-scenario form that shard
//!   plans embed and ship over the wire.
//! * **The one seam** — `fleetd plan/work/run` (via `--spec`), the
//!   `experiments fleet` command, `examples/` and `crates/bench` all
//!   build their runs through this module; the legacy CLI flags build a
//!   spec internally and round-trip it through the serializer, so the
//!   flag path and the file path are the same wire format by
//!   construction. This is deliberately the serialization boundary a
//!   multi-host dispatcher ships over the wire.
//!
//! ```
//! use replica_engine::prelude::*;
//!
//! let registry = Registry::with_all();
//! let campaign = CampaignSpec::builder()
//!     .scenario_set(ScenarioSet::Standard, 12)
//!     .instances_per_scenario(1)
//!     .solvers(["dp_power", "greedy_power"])
//!     .seed(7)
//!     .build()
//!     .validate(&registry)
//!     .unwrap();
//! let fleet = Fleet::try_new(&registry, campaign.fleet_config()).unwrap();
//! let report = fleet.run(&campaign.space(), &Obs::noop());
//! assert_eq!(report.cell_count, campaign.job_count() * 2);
//!
//! // A bad spec fails at load time, with a suggestion:
//! let typo = CampaignSpec::builder()
//!     .scenario_set(ScenarioSet::Standard, 12)
//!     .solvers(["dp_pwoer"])
//!     .build()
//!     .validate(&registry)
//!     .unwrap_err();
//! assert!(typo.to_string().contains("did you mean `dp_power`?"));
//! ```

use crate::fleet::{FleetConfig, FleetJob};
use crate::jobspace::ScenarioSpace;
use crate::output::OutputFormat;
use crate::registry::Registry;
use crate::scenarios::Scenario;
use crate::solver::SolveOptions;
use replica_model::ModeSet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Instances generated per scenario when a spec leaves
/// [`CampaignSpec::instances_per_scenario`] unset.
pub const DEFAULT_INSTANCES_PER_SCENARIO: usize = 2;

/// Fleet seed used when a spec leaves [`CampaignSpec::seed`] unset.
pub const DEFAULT_SEED: u64 = 991987;

/// Streaming batch size used when a spec leaves
/// [`CampaignSpec::batch_jobs`] unset.
pub const DEFAULT_BATCH_JOBS: usize = 64;

/// The default solver lineup for spec- and CLI-built campaigns (shared
/// by `fleetd` and the experiment binaries — the single copy).
pub fn default_solvers() -> Vec<String> {
    vec![
        "dp_power".into(),
        "greedy_power".into(),
        "heur_power_greedy".into(),
    ]
}

/// The campaign-description flags of the shared CLI grammar
/// ([`CampaignSpec::from_cli`]), without the leading `--`. CLIs use this
/// list to whitelist flags and to detect `--spec`/flag mixing — the
/// single copy shared by `fleetd` and `experiments fleet`.
pub const CAMPAIGN_FLAG_NAMES: &[&str] = &[
    "spec",
    "scenarios",
    "nodes",
    "count",
    "solvers",
    "reference",
    "seed",
    "batch-jobs",
    "threads",
    "cost-bound",
    "budgets",
];

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a campaign spec was rejected — the typed error of the whole
/// spec/config path ([`CampaignSpec`], [`Campaign`], [`FleetConfig`],
/// the `fleetd` CLI). Every variant's [`fmt::Display`] message says what
/// to change, not just what broke.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// Neither a named set nor an inline scenario list was given.
    MissingScenarios,
    /// Both a named set and an inline scenario list were given.
    AmbiguousScenarios,
    /// The named scenario set does not exist.
    UnknownScenarioSet {
        /// The name the spec used.
        got: String,
        /// The closest valid set name, when one is plausibly intended.
        suggestion: Option<String>,
    },
    /// The inline scenario list is empty.
    EmptyScenarioList,
    /// An inline scenario is structurally invalid (too small, bad mode
    /// capacities, non-finite costs).
    InvalidScenario {
        /// The scenario's name.
        name: String,
        /// What is wrong with it.
        message: String,
    },
    /// `instances_per_scenario` is zero.
    ZeroInstances,
    /// The solver lineup is empty.
    NoSolvers,
    /// A solver name is not a registry key.
    UnknownSolver {
        /// The name the spec used.
        name: String,
        /// The closest registered name, when one is plausibly intended.
        suggestion: Option<String>,
    },
    /// The same solver appears twice in the lineup (groups are keyed by
    /// `(scenario, solver)`, so a duplicate would merge ambiguously).
    DuplicateSolver {
        /// The repeated name.
        name: String,
    },
    /// The reference solver is not part of the lineup.
    ReferenceNotInLineup {
        /// The reference the spec named.
        reference: String,
    },
    /// `batch_jobs` is zero.
    ZeroBatchJobs,
    /// `threads` is zero.
    ZeroThreads,
    /// The cost bound is NaN or negative.
    InvalidCostBound {
        /// The offending value.
        value: f64,
    },
    /// A budget grid was given but is empty.
    EmptyBudgetGrid,
    /// A budget grid entry is non-finite or negative.
    InvalidBudget {
        /// The offending value.
        value: f64,
    },
    /// `--spec FILE` was combined with individual campaign flags.
    SpecFlagConflict {
        /// The conflicting campaign flag (without the `--`).
        flag: String,
    },
    /// The output format label is not recognized.
    UnknownFormat {
        /// The label the spec used.
        got: String,
        /// The closest valid label, when one is plausibly intended.
        suggestion: Option<String>,
    },
    /// A spec file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error rendering.
        message: String,
    },
    /// A spec document could not be parsed.
    Parse {
        /// Where the document came from (a path, or `<inline>`).
        context: String,
        /// The parser's error rendering.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suggest = |s: &Option<String>| match s {
            Some(name) => format!(" (did you mean `{name}`?)"),
            None => String::new(),
        };
        match self {
            SpecError::MissingScenarios => write!(
                f,
                "spec selects no scenarios: set either `scenario_set` \
                 (a named set at a node count) or `scenarios` (an inline list)"
            ),
            SpecError::AmbiguousScenarios => write!(
                f,
                "spec sets both `scenario_set` and `scenarios`; \
                 pick one of the two"
            ),
            SpecError::UnknownScenarioSet { got, suggestion } => write!(
                f,
                "unknown scenario set {got:?}{} — valid sets: {}",
                suggest(suggestion),
                ScenarioSet::ALL.map(|s| s.label()).join(", "),
            ),
            SpecError::EmptyScenarioList => {
                write!(f, "the inline `scenarios` list is empty")
            }
            SpecError::InvalidScenario { name, message } => {
                write!(f, "invalid scenario {name:?}: {message}")
            }
            SpecError::ZeroInstances => write!(
                f,
                "instances_per_scenario = 0; a campaign needs at least one \
                 instance per scenario"
            ),
            SpecError::NoSolvers => {
                write!(
                    f,
                    "the solver lineup is empty; list at least one registry solver"
                )
            }
            SpecError::UnknownSolver { name, suggestion } => {
                write!(f, "unknown solver {name:?}{}", suggest(suggestion))
            }
            SpecError::DuplicateSolver { name } => write!(
                f,
                "solver {name:?} appears more than once in the lineup; \
                 each solver may run at most once per campaign"
            ),
            SpecError::ReferenceNotInLineup { reference } => write!(
                f,
                "reference solver {reference:?} is not among the campaign \
                 solvers; add it to the lineup or drop the reference"
            ),
            SpecError::ZeroBatchJobs => write!(
                f,
                "campaign has batch_jobs = 0; the streaming batch size \
                 must be at least 1"
            ),
            SpecError::ZeroThreads => write!(
                f,
                "threads = 0; omit the field for the machine default or \
                 give a positive count"
            ),
            SpecError::InvalidCostBound { value } => write!(
                f,
                "cost_bound = {value} is not a valid budget; use a finite \
                 non-negative number, or omit the field for unconstrained"
            ),
            SpecError::EmptyBudgetGrid => write!(
                f,
                "budget_grid is empty; list at least one budget, or omit \
                 the field"
            ),
            SpecError::InvalidBudget { value } => write!(
                f,
                "budget_grid entry {value} is not a valid budget; every \
                 entry must be finite and non-negative"
            ),
            SpecError::SpecFlagConflict { flag } => write!(
                f,
                "--spec and --{flag} cannot be combined; put the campaign \
                 description in the spec file"
            ),
            SpecError::UnknownFormat { got, suggestion } => write!(
                f,
                "unknown format {got:?}{} — valid formats: {}",
                suggest(suggestion),
                OutputFormat::ALL.map(|s| s.label()).join(", "),
            ),
            SpecError::Io { path, message } => write!(f, "{path}: {message}"),
            SpecError::Parse { context, message } => {
                write!(f, "{context}: cannot parse campaign spec: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Levenshtein distance (iterative two-row DP) for the did-you-mean
/// suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            current.push(substitute.min(prev[j + 1] + 1).min(current[j] + 1));
        }
        prev = current;
    }
    prev[b.len()]
}

/// The closest candidate to `got`, when it is close enough to be a
/// plausible typo (edit distance at most 2, or a third of the longer
/// name for long names).
pub(crate) fn did_you_mean<'a>(
    got: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    let (best, distance) = candidates
        .into_iter()
        .map(|c| (c, levenshtein(got, c)))
        .min_by_key(|&(_, d)| d)?;
    let budget = 2.max(got.len().max(best.len()) / 3);
    (distance <= budget).then_some(best)
}

// ---------------------------------------------------------------------------
// Scenario selection
// ---------------------------------------------------------------------------

/// A named scenario set — the `"standard"` / `"churn"` / `"extended"`
/// parsing previously copy-pasted across the CLIs, now the single copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum ScenarioSet {
    /// The paper-aligned 5 × 4 topology × demand cross product
    /// ([`crate::scenarios::standard_families`], 20 scenarios).
    Standard,
    /// The sim-backed 5 × 3 churn cross product
    /// ([`crate::scenarios::churn_families`], 15 scenarios).
    Churn,
    /// Both ([`crate::scenarios::extended_families`], 35 scenarios).
    Extended,
}

impl ScenarioSet {
    /// Every named set.
    pub const ALL: [ScenarioSet; 3] = [
        ScenarioSet::Standard,
        ScenarioSet::Churn,
        ScenarioSet::Extended,
    ];

    /// The CLI/spec label of this set.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioSet::Standard => "standard",
            ScenarioSet::Churn => "churn",
            ScenarioSet::Extended => "extended",
        }
    }

    /// Parses a CLI/spec set label, with a nearest-name suggestion on a
    /// miss.
    pub fn parse(name: &str) -> Result<ScenarioSet, SpecError> {
        ScenarioSet::ALL
            .into_iter()
            .find(|s| s.label() == name)
            .ok_or_else(|| SpecError::UnknownScenarioSet {
                got: name.to_string(),
                suggestion: did_you_mean(name, ScenarioSet::ALL.iter().map(|s| s.label()))
                    .map(str::to_string),
            })
    }

    /// The set's scenario families at the given internal-node count.
    pub fn families(self, nodes: usize) -> Vec<Scenario> {
        match self {
            ScenarioSet::Standard => crate::scenarios::standard_families(nodes),
            ScenarioSet::Churn => crate::scenarios::churn_families(nodes),
            ScenarioSet::Extended => crate::scenarios::extended_families(nodes),
        }
    }
}

impl fmt::Display for ScenarioSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<ScenarioSet> for String {
    fn from(set: ScenarioSet) -> String {
        set.label().to_string()
    }
}

impl TryFrom<String> for ScenarioSet {
    type Error = SpecError;

    fn try_from(name: String) -> Result<ScenarioSet, SpecError> {
        ScenarioSet::parse(&name)
    }
}

/// A named scenario set at a node count — the `scenario_set` field of a
/// spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioSetRef {
    /// Which built-in set.
    pub set: ScenarioSet,
    /// Internal nodes per tree.
    pub nodes: usize,
}

// ---------------------------------------------------------------------------
// CampaignSpec
// ---------------------------------------------------------------------------

/// The serializable, declarative description of a campaign — everything
/// optional except the scenario selection, defaults documented per
/// field. Validation ([`CampaignSpec::validate`]) resolves it into a
/// runnable [`Campaign`] or fails with a [`SpecError`] before any job
/// runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Named scenario set (mutually exclusive with
    /// [`CampaignSpec::scenarios`]; exactly one must be set).
    pub scenario_set: Option<ScenarioSetRef>,
    /// Inline scenario list (mutually exclusive with
    /// [`CampaignSpec::scenario_set`]).
    pub scenarios: Option<Vec<Scenario>>,
    /// Instances generated per scenario
    /// (default [`DEFAULT_INSTANCES_PER_SCENARIO`]).
    pub instances_per_scenario: Option<usize>,
    /// Solver lineup, registry keys in cell-row order
    /// (default [`default_solvers`]).
    pub solvers: Option<Vec<String>>,
    /// Reference solver for gap/speedup columns (default: the engine's
    /// preference — `dp_power`, then `dp_power_full`, when present).
    pub reference: Option<String>,
    /// Fleet seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// Streaming batch size (default [`DEFAULT_BATCH_JOBS`]).
    pub batch_jobs: Option<usize>,
    /// Worker-thread override (default: the machine default).
    pub threads: Option<usize>,
    /// Cost budget handed to every solve (default: unconstrained).
    pub cost_bound: Option<f64>,
    /// Budget grid for frontier sweeps over the campaign's scenarios
    /// (default: none; consumed by `experiments fleet`).
    pub budget_grid: Option<Vec<f64>>,
    /// Preferred rendering of the campaign's report (default `table`).
    pub output: Option<OutputFormat>,
}

impl CampaignSpec {
    /// A fluent builder over an empty spec.
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            spec: CampaignSpec::default(),
        }
    }

    /// Serializes the spec as compact JSON (the wire format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization cannot fail")
    }

    /// Parses a spec from JSON.
    pub fn from_json(text: &str) -> Result<CampaignSpec, SpecError> {
        serde_json::from_str(text).map_err(|e| SpecError::Parse {
            context: "<inline>".into(),
            message: e.to_string(),
        })
    }

    /// Loads a spec from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<CampaignSpec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        serde_json::from_str(&text).map_err(|e| SpecError::Parse {
            context: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Writes the spec as JSON to `path`, creating parent directories.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SpecError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
        }
        std::fs::write(path, self.to_json()).map_err(io)
    }

    /// The shared CLI grammar: loads `--spec FILE` when given, else
    /// builds a spec from the legacy campaign flags
    /// ([`CAMPAIGN_FLAG_NAMES`]) — `--scenarios SET` (default
    /// `standard`), `--nodes N` (default 16), `--count`, `--solvers
    /// a,b,c`, `--reference`, `--seed`, `--batch-jobs`, `--threads`,
    /// `--cost-bound`, `--budgets a,b,c`. Unset flags stay unset and
    /// resolve to the spec defaults at validation, so the flag path and
    /// the file path describe campaigns identically. Mixing `--spec`
    /// with any campaign flag is a [`SpecError::SpecFlagConflict`].
    ///
    /// `get` looks a flag's value up by name (without the `--`) in the
    /// caller's parsed arguments; `fleetd` and `experiments fleet` both
    /// drive this single copy.
    pub fn from_cli<'a>(get: &dyn Fn(&str) -> Option<&'a str>) -> Result<CampaignSpec, SpecError> {
        if let Some(path) = get("spec") {
            if let Some(conflict) = CAMPAIGN_FLAG_NAMES
                .iter()
                .filter(|f| **f != "spec")
                .find(|f| get(f).is_some())
            {
                return Err(SpecError::SpecFlagConflict {
                    flag: conflict.to_string(),
                });
            }
            return CampaignSpec::load(path);
        }
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, SpecError> {
            text.parse().map_err(|_| SpecError::Parse {
                context: format!("--{flag}"),
                message: format!("cannot parse {text:?} as a number"),
            })
        }
        let set = ScenarioSet::parse(get("scenarios").unwrap_or("standard"))?;
        let nodes = match get("nodes") {
            Some(text) => number("nodes", text)?,
            None => 16,
        };
        let mut builder = CampaignSpec::builder().scenario_set(set, nodes);
        if let Some(text) = get("count") {
            builder = builder.instances_per_scenario(number("count", text)?);
        }
        if let Some(solvers) = get("solvers") {
            builder = builder.solvers(solvers.split(','));
        }
        if let Some(reference) = get("reference") {
            builder = builder.reference(reference);
        }
        if let Some(text) = get("seed") {
            builder = builder.seed(number("seed", text)?);
        }
        if let Some(text) = get("batch-jobs") {
            builder = builder.batch_jobs(number("batch-jobs", text)?);
        }
        if let Some(text) = get("threads") {
            builder = builder.threads(number("threads", text)?);
        }
        if let Some(text) = get("cost-bound") {
            builder = builder.cost_bound(number("cost-bound", text)?);
        }
        if let Some(text) = get("budgets") {
            let budgets = text
                .split(',')
                .map(|b| number("budgets", b))
                .collect::<Result<Vec<f64>, _>>()?;
            builder = builder.budget_grid(budgets);
        }
        Ok(builder.build())
    }

    /// Validates the spec against `registry` and the scenario families,
    /// resolving defaults into a runnable [`Campaign`]. This is the load
    /// gate: a spec that passes cannot fail later for configuration
    /// reasons.
    pub fn validate(&self, registry: &Registry) -> Result<Campaign, SpecError> {
        let scenarios = match (&self.scenario_set, &self.scenarios) {
            (Some(_), Some(_)) => return Err(SpecError::AmbiguousScenarios),
            (None, None) => return Err(SpecError::MissingScenarios),
            (Some(named), None) => named.set.families(named.nodes),
            (None, Some(inline)) => inline.clone(),
        };
        let campaign = Campaign {
            scenarios,
            instances_per_scenario: self
                .instances_per_scenario
                .unwrap_or(DEFAULT_INSTANCES_PER_SCENARIO),
            solvers: self.solvers.clone().unwrap_or_else(default_solvers),
            reference: self.reference.clone(),
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            batch_jobs: self.batch_jobs.unwrap_or(DEFAULT_BATCH_JOBS),
            threads: self.threads,
            cost_bound: self.cost_bound,
            budget_grid: self.budget_grid.clone(),
            output: self.output.unwrap_or_default(),
        };
        campaign.validate(registry)?;
        Ok(campaign)
    }
}

/// Fluent constructor for [`CampaignSpec`] — every setter mirrors one
/// spec field; unset fields keep their documented defaults.
#[derive(Clone, Debug, Default)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Selects a named scenario set at a node count.
    pub fn scenario_set(mut self, set: ScenarioSet, nodes: usize) -> Self {
        self.spec.scenario_set = Some(ScenarioSetRef { set, nodes });
        self
    }

    /// Selects an explicit scenario list.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.spec.scenarios = Some(scenarios.into_iter().collect());
        self
    }

    /// Instances generated per scenario.
    pub fn instances_per_scenario(mut self, count: usize) -> Self {
        self.spec.instances_per_scenario = Some(count);
        self
    }

    /// The solver lineup (replaces any previously set lineup).
    pub fn solvers<S: Into<String>>(mut self, solvers: impl IntoIterator<Item = S>) -> Self {
        self.spec.solvers = Some(solvers.into_iter().map(Into::into).collect());
        self
    }

    /// Appends one solver to the lineup.
    pub fn solver(mut self, name: impl Into<String>) -> Self {
        self.spec
            .solvers
            .get_or_insert_with(Vec::new)
            .push(name.into());
        self
    }

    /// The reference solver for gap/speedup columns.
    pub fn reference(mut self, name: impl Into<String>) -> Self {
        self.spec.reference = Some(name.into());
        self
    }

    /// The fleet seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = Some(seed);
        self
    }

    /// The streaming batch size.
    pub fn batch_jobs(mut self, batch_jobs: usize) -> Self {
        self.spec.batch_jobs = Some(batch_jobs);
        self
    }

    /// The worker-thread override.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = Some(threads);
        self
    }

    /// The cost budget handed to every solve.
    pub fn cost_bound(mut self, bound: f64) -> Self {
        self.spec.cost_bound = Some(bound);
        self
    }

    /// The budget grid for frontier sweeps.
    pub fn budget_grid(mut self, budgets: impl IntoIterator<Item = f64>) -> Self {
        self.spec.budget_grid = Some(budgets.into_iter().collect());
        self
    }

    /// The preferred report rendering.
    pub fn output(mut self, format: OutputFormat) -> Self {
        self.spec.output = Some(format);
        self
    }

    /// The finished (still unvalidated) spec.
    pub fn build(self) -> CampaignSpec {
        self.spec
    }

    /// Builds and validates in one step.
    pub fn validate(self, registry: &Registry) -> Result<Campaign, SpecError> {
        self.spec.validate(registry)
    }
}

// ---------------------------------------------------------------------------
// Campaign (the validated, resolved form)
// ---------------------------------------------------------------------------

/// A self-contained, reproducible campaign — a [`CampaignSpec`] after
/// validation: scenarios resolved inline (plans stay self-contained even
/// if the built-in families change), defaults filled in.
///
/// Workers and coordinators never exchange instances — only this
/// description plus shard ranges — because instance generation is
/// deterministic in `(scenario, seed, index)`: [`Campaign::space`] is
/// the lazy, indexed [`ScenarioSpace`] over the description, and a
/// worker queries it only for its own shard's indices.
///
/// A `Campaign` deserialized from the wire is *unchecked*; re-run
/// [`Campaign::validate`] before executing it (the `fleetd` worker and
/// merge do).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// The instance families evaluated (job order: scenarios in this
    /// order, instances `0..instances_per_scenario` within each).
    pub scenarios: Vec<Scenario>,
    /// Instances generated per scenario.
    pub instances_per_scenario: usize,
    /// Solver names (registry keys), in cell-row order.
    pub solvers: Vec<String>,
    /// Reference solver for gap/speedup columns (`None` = the engine's
    /// default preference: `dp_power`, then `dp_power_full`).
    pub reference: Option<String>,
    /// Fleet seed: drives instance generation and per-instance solver
    /// seeds.
    pub seed: u64,
    /// Streaming batch size of each worker's in-process fleet run.
    pub batch_jobs: usize,
    /// Worker-thread override (`None` = machine default; results are
    /// identical for every value).
    pub threads: Option<usize>,
    /// Cost budget handed to every solve (`None` = unconstrained).
    pub cost_bound: Option<f64>,
    /// Budget grid for frontier sweeps over the campaign's scenarios.
    pub budget_grid: Option<Vec<f64>>,
    /// Preferred rendering of the campaign's report.
    pub output: OutputFormat,
}

impl Campaign {
    /// Default solver lineup for CLI-built campaigns (the spec module's
    /// [`default_solvers`], under its historical name).
    pub fn default_solvers() -> Vec<String> {
        default_solvers()
    }

    /// Builds a validated campaign over a named scenario set
    /// (`"standard"`, `"churn"` or `"extended"`) with the default solver
    /// lineup — the historical constructor, now routed through the spec
    /// path and validated against the full registry.
    pub fn from_set(
        set: &str,
        nodes: usize,
        count: usize,
        seed: u64,
    ) -> Result<Campaign, SpecError> {
        CampaignSpec::builder()
            .scenario_set(ScenarioSet::parse(set)?, nodes)
            .instances_per_scenario(count)
            .seed(seed)
            .validate(&Registry::with_all())
    }

    /// The campaign as an (inline-scenario) spec — the exact wire form:
    /// validating this spec reproduces the campaign field for field.
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            scenario_set: None,
            scenarios: Some(self.scenarios.clone()),
            instances_per_scenario: Some(self.instances_per_scenario),
            solvers: Some(self.solvers.clone()),
            reference: self.reference.clone(),
            seed: Some(self.seed),
            batch_jobs: Some(self.batch_jobs),
            threads: self.threads,
            cost_bound: self.cost_bound,
            budget_grid: self.budget_grid.clone(),
            output: Some(self.output),
        }
    }

    /// Total number of jobs (instances) in the campaign's job space.
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.instances_per_scenario
    }

    /// The campaign's indexed lazy job space: `index → FleetJob` as a
    /// pure function of the global job index. This is what workers run
    /// their shard ranges against — generating only their own jobs.
    pub fn space(&self) -> ScenarioSpace<'_> {
        ScenarioSpace::new(&self.scenarios, self.seed, self.instances_per_scenario)
    }

    /// Materializes the full deterministic job list, in job order —
    /// `O(campaign)` time and memory. Prefer [`Campaign::space`].
    pub fn jobs(&self) -> Vec<FleetJob> {
        self.space().materialize()
    }

    /// The fleet configuration every worker runs with.
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            solvers: self.solvers.clone(),
            options: SolveOptions {
                cost_bound: self.cost_bound.unwrap_or(f64::INFINITY),
                ..SolveOptions::default()
            },
            seed: self.seed,
            reference: self.reference.clone(),
            threads: self.threads,
            batch_jobs: self.batch_jobs,
        }
    }

    /// Re-validates the (possibly wire-deserialized) campaign against
    /// `registry` — the same checks [`CampaignSpec::validate`] performs
    /// on the resolved form.
    pub fn validate(&self, registry: &Registry) -> Result<(), SpecError> {
        if self.scenarios.is_empty() {
            return Err(SpecError::EmptyScenarioList);
        }
        for scenario in &self.scenarios {
            validate_scenario(scenario)?;
        }
        if self.instances_per_scenario == 0 {
            return Err(SpecError::ZeroInstances);
        }
        validate_lineup(&self.solvers, self.reference.as_deref(), registry)?;
        if self.batch_jobs == 0 {
            return Err(SpecError::ZeroBatchJobs);
        }
        if self.threads == Some(0) {
            return Err(SpecError::ZeroThreads);
        }
        if let Some(bound) = self.cost_bound {
            // Finite only: the JSON wire format renders non-finite
            // floats as null, so an infinite bound could not round-trip
            // — and `None` already means unconstrained.
            if !bound.is_finite() || bound < 0.0 {
                return Err(SpecError::InvalidCostBound { value: bound });
            }
        }
        if let Some(grid) = &self.budget_grid {
            if grid.is_empty() {
                return Err(SpecError::EmptyBudgetGrid);
            }
            for &budget in grid {
                if !budget.is_finite() || budget < 0.0 {
                    return Err(SpecError::InvalidBudget { value: budget });
                }
            }
        }
        Ok(())
    }

    /// FNV-1a fingerprint of the campaign's canonical JSON encoding.
    /// Plans stamp it and workers echo it, so a merge can refuse shard
    /// reports produced from a different campaign.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("campaign serialization cannot fail");
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in json.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Checks a solver lineup and optional reference against the registry —
/// shared by [`Campaign::validate`] and [`FleetConfig::validate`].
pub(crate) fn validate_lineup(
    solvers: &[String],
    reference: Option<&str>,
    registry: &Registry,
) -> Result<(), SpecError> {
    if solvers.is_empty() {
        return Err(SpecError::NoSolvers);
    }
    for (i, name) in solvers.iter().enumerate() {
        if registry.get(name).is_none() {
            return Err(SpecError::UnknownSolver {
                name: name.clone(),
                suggestion: did_you_mean(name, registry.names()).map(str::to_string),
            });
        }
        if solvers[..i].contains(name) {
            return Err(SpecError::DuplicateSolver { name: name.clone() });
        }
    }
    if let Some(reference) = reference {
        if !solvers.iter().any(|s| s == reference) {
            return Err(SpecError::ReferenceNotInLineup {
                reference: reference.to_string(),
            });
        }
    }
    Ok(())
}

/// Structural checks on one inline scenario: size and model parameters
/// that would otherwise only fail (by panic) once an instance is built.
fn validate_scenario(scenario: &Scenario) -> Result<(), SpecError> {
    let invalid = |message: String| SpecError::InvalidScenario {
        name: scenario.name.clone(),
        message,
    };
    if scenario.nodes < 2 {
        return Err(invalid(format!(
            "scenarios need at least two internal nodes, got {}",
            scenario.nodes
        )));
    }
    ModeSet::new(scenario.modes.clone()).map_err(|e| invalid(e.to_string()))?;
    for (label, value) in [
        ("create", scenario.create),
        ("delete", scenario.delete),
        ("changed", scenario.changed),
    ] {
        if !value.is_finite() || value < 0.0 {
            return Err(invalid(format!(
                "{label} cost {value} must be finite and non-negative"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Demand, Topology};

    #[test]
    fn named_sets_resolve() {
        assert_eq!(
            Campaign::from_set("standard", 12, 2, 1)
                .unwrap()
                .scenarios
                .len(),
            20
        );
        assert_eq!(
            Campaign::from_set("churn", 12, 2, 1)
                .unwrap()
                .scenarios
                .len(),
            15
        );
        let extended = Campaign::from_set("extended", 12, 2, 1).unwrap();
        assert_eq!(extended.scenarios.len(), 35);
        assert_eq!(extended.job_count(), 70);
        assert!(Campaign::from_set("nope", 12, 2, 1).is_err());
    }

    #[test]
    fn unknown_set_suggests_the_nearest_name() {
        match Campaign::from_set("standrad", 12, 1, 1) {
            Err(SpecError::UnknownScenarioSet { got, suggestion }) => {
                assert_eq!(got, "standrad");
                assert_eq!(suggestion.as_deref(), Some("standard"));
            }
            other => panic!("expected UnknownScenarioSet, got {other:?}"),
        }
        let message = Campaign::from_set("standrad", 12, 1, 1)
            .unwrap_err()
            .to_string();
        assert!(message.contains("did you mean `standard`?"), "{message}");
    }

    #[test]
    fn unknown_solver_suggests_the_nearest_registry_key() {
        let registry = Registry::with_all();
        let err = CampaignSpec::builder()
            .scenario_set(ScenarioSet::Standard, 12)
            .solvers(["dp_pwoer"])
            .validate(&registry)
            .unwrap_err();
        match &err {
            SpecError::UnknownSolver { name, suggestion } => {
                assert_eq!(name, "dp_pwoer");
                assert_eq!(suggestion.as_deref(), Some("dp_power"));
            }
            other => panic!("expected UnknownSolver, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean `dp_power`?"));

        // A name nothing like any key gets no suggestion.
        let err = CampaignSpec::builder()
            .scenario_set(ScenarioSet::Standard, 12)
            .solvers(["quantum_annealer_9000"])
            .validate(&registry)
            .unwrap_err();
        match err {
            SpecError::UnknownSolver { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("expected UnknownSolver, got {other:?}"),
        }
    }

    #[test]
    fn validation_catches_config_errors() {
        let registry = Registry::with_all();
        let good = Campaign::from_set("standard", 12, 1, 1).unwrap();
        good.validate(&registry).unwrap();

        let mut bad = good.clone();
        bad.solvers.push("not_a_solver".into());
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::UnknownSolver { .. })
        ));

        let mut bad = good.clone();
        bad.solvers.push("dp_power".into());
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::DuplicateSolver { .. })
        ));

        let mut bad = good.clone();
        bad.batch_jobs = 0;
        assert_eq!(bad.validate(&registry), Err(SpecError::ZeroBatchJobs));

        let mut bad = good.clone();
        bad.threads = Some(0);
        assert_eq!(bad.validate(&registry), Err(SpecError::ZeroThreads));

        let mut bad = good.clone();
        bad.reference = Some("exhaustive".into());
        assert!(
            matches!(
                bad.validate(&registry),
                Err(SpecError::ReferenceNotInLineup { .. })
            ),
            "reference must be in solvers"
        );

        let mut bad = good.clone();
        bad.cost_bound = Some(-1.0);
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::InvalidCostBound { .. })
        ));

        // Infinity cannot round-trip through JSON (renders as null), so
        // it is rejected too — `None` is the unconstrained spelling.
        let mut bad = good.clone();
        bad.cost_bound = Some(f64::INFINITY);
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::InvalidCostBound { .. })
        ));

        let mut bad = good.clone();
        bad.budget_grid = Some(vec![]);
        assert_eq!(bad.validate(&registry), Err(SpecError::EmptyBudgetGrid));

        let mut bad = good.clone();
        bad.budget_grid = Some(vec![5.0, f64::NAN]);
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::InvalidBudget { .. })
        ));

        let mut bad = good.clone();
        bad.scenarios[0].modes = vec![10, 5];
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::InvalidScenario { .. })
        ));

        let mut bad = good.clone();
        bad.scenarios[0].nodes = 1;
        assert!(matches!(
            bad.validate(&registry),
            Err(SpecError::InvalidScenario { .. })
        ));

        let mut bad = good;
        bad.instances_per_scenario = 0;
        assert_eq!(bad.validate(&registry), Err(SpecError::ZeroInstances));
    }

    #[test]
    fn spec_scenario_selection_is_exactly_one() {
        let registry = Registry::with_all();
        assert_eq!(
            CampaignSpec::default().validate(&registry),
            Err(SpecError::MissingScenarios)
        );
        let both = CampaignSpec {
            scenario_set: Some(ScenarioSetRef {
                set: ScenarioSet::Standard,
                nodes: 12,
            }),
            scenarios: Some(vec![Scenario::new(Topology::Fat, Demand::Uniform, 12)]),
            ..CampaignSpec::default()
        };
        assert_eq!(both.validate(&registry), Err(SpecError::AmbiguousScenarios));
        let empty_inline = CampaignSpec {
            scenarios: Some(vec![]),
            ..CampaignSpec::default()
        };
        assert_eq!(
            empty_inline.validate(&registry),
            Err(SpecError::EmptyScenarioList)
        );
    }

    #[test]
    fn spec_defaults_resolve_and_round_trip() {
        let registry = Registry::with_all();
        let spec = CampaignSpec::builder()
            .scenario_set(ScenarioSet::Churn, 10)
            .build();
        let campaign = spec.validate(&registry).unwrap();
        assert_eq!(
            campaign.instances_per_scenario,
            DEFAULT_INSTANCES_PER_SCENARIO
        );
        assert_eq!(campaign.solvers, default_solvers());
        assert_eq!(campaign.seed, DEFAULT_SEED);
        assert_eq!(campaign.batch_jobs, DEFAULT_BATCH_JOBS);
        assert_eq!(campaign.output, OutputFormat::Table);
        assert_eq!(campaign.threads, None);

        // The minimal spec round-trips through JSON byte-identically.
        let json = spec.to_json();
        let back = CampaignSpec::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        assert_eq!(
            back.validate(&registry).unwrap().fingerprint(),
            campaign.fingerprint()
        );

        // And the campaign's own spec() reproduces it field for field.
        let again = campaign.spec().validate(&registry).unwrap();
        assert_eq!(again.fingerprint(), campaign.fingerprint());
    }

    #[test]
    fn campaign_round_trips_through_json() {
        let campaign = Campaign::from_set("churn", 10, 3, 7).unwrap();
        let json = serde_json::to_string(&campaign).unwrap();
        let back: Campaign = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fingerprint(), campaign.fingerprint());
        assert_eq!(back.job_count(), campaign.job_count());
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = Campaign::from_set("standard", 12, 2, 1).unwrap();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 2;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn spec_files_save_and_load() {
        let dir = std::env::temp_dir().join(format!("spec-test-{}", std::process::id()));
        let path = dir.join("campaign.json");
        let spec = CampaignSpec::builder()
            .scenario_set(ScenarioSet::Standard, 12)
            .instances_per_scenario(1)
            .solvers(["dp_power", "greedy_power"])
            .seed(3)
            .output(OutputFormat::JsonDeterministic)
            .build();
        spec.save(&path).unwrap();
        let back = CampaignSpec::load(&path).unwrap();
        assert_eq!(back.to_json(), spec.to_json());
        let _ = std::fs::remove_dir_all(&dir);

        assert!(matches!(
            CampaignSpec::load(dir.join("missing.json")),
            Err(SpecError::Io { .. })
        ));
    }

    #[test]
    fn parse_errors_carry_their_context() {
        let dir = std::env::temp_dir().join(format!("spec-parse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{not json").unwrap();
        match CampaignSpec::load(&path) {
            Err(SpecError::Parse { context, .. }) => {
                assert!(context.contains("broken.json"), "{context}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            CampaignSpec::from_json("[1, 2]"),
            Err(SpecError::Parse { .. })
        ));
    }

    #[test]
    fn from_cli_builds_loads_and_rejects_mixing() {
        let registry = Registry::with_all();
        let flags = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        };

        // Flags build a spec whose unset fields resolve to the defaults.
        let get = flags(&[
            ("scenarios", "churn"),
            ("nodes", "10"),
            ("count", "3"),
            ("solvers", "dp_power,greedy_power"),
            ("seed", "7"),
            ("budgets", "2,5"),
        ]);
        let campaign = CampaignSpec::from_cli(&get)
            .unwrap()
            .validate(&registry)
            .unwrap();
        assert_eq!(campaign.scenarios.len(), 15);
        assert_eq!(campaign.instances_per_scenario, 3);
        assert_eq!(campaign.solvers, vec!["dp_power", "greedy_power"]);
        assert_eq!(campaign.seed, 7);
        assert_eq!(campaign.budget_grid, Some(vec![2.0, 5.0]));
        assert_eq!(campaign.batch_jobs, DEFAULT_BATCH_JOBS, "unset → default");

        // No flags at all: the standard set at 16 nodes, all defaults.
        let bare = CampaignSpec::from_cli(&flags(&[]))
            .unwrap()
            .validate(&registry)
            .unwrap();
        assert_eq!(bare.scenarios.len(), 20);
        assert_eq!(bare.seed, DEFAULT_SEED);

        // Bad numbers fail with the flag as context.
        match CampaignSpec::from_cli(&flags(&[("nodes", "many")])) {
            Err(SpecError::Parse { context, .. }) => assert_eq!(context, "--nodes"),
            other => panic!("expected Parse, got {other:?}"),
        }

        // --spec plus any campaign flag is a conflict.
        match CampaignSpec::from_cli(&flags(&[("spec", "c.json"), ("seed", "7")])) {
            Err(SpecError::SpecFlagConflict { flag }) => assert_eq!(flag, "seed"),
            other => panic!("expected SpecFlagConflict, got {other:?}"),
        }
    }

    #[test]
    fn did_you_mean_thresholds() {
        let names = ["dp_power", "greedy_power", "heur_annealing"];
        assert_eq!(did_you_mean("dp_pwoer", names), Some("dp_power"));
        assert_eq!(did_you_mean("greedy_powr", names), Some("greedy_power"));
        assert_eq!(did_you_mean("zzzzzz", names), None);
        assert_eq!(did_you_mean("anything", []), None);
    }
}
