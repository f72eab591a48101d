//! The uniform [`Solver`] interface every algorithm in the workspace is
//! wrapped behind.
//!
//! A solver consumes a [`replica_model::Instance`] plus [`SolveOptions`]
//! and yields a [`SolveOutcome`]: a placement together with its cost,
//! power, server count and wall-clock time. Crucially, the outcome's
//! metrics are **not** whatever the wrapped algorithm claims: every
//! placement is re-evaluated through the model crate's independent
//! Eq. 2/3/4 semantics, so outcomes from different algorithms are always
//! comparable (and a lying solver is caught immediately).
//!
//! [`Capabilities`] describe what an algorithm can consume — multi-mode
//! instances, pre-existing servers, a cost budget — and whether its result
//! is provably optimal for its [`Objective`]. The fleet runner and the
//! cross-validation suite use these flags to decide which instances a
//! solver may be asked to solve and how strictly to judge the answer.

use replica_core::SolveArena;
use replica_model::{Instance, ModePolicy, ModelError, Placement, Solution};
use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-worker solve arena: fleet threads re-enter the hot solvers
    /// thousands of times, and the arena lets every solve after the first
    /// reuse the layouts, tables and buffers the earlier ones grew.
    static SOLVE_ARENA: RefCell<SolveArena> = RefCell::new(SolveArena::new());
}

/// Runs `f` with this thread's [`SolveArena`].
///
/// Re-entrancy safe: if the thread-local arena is already borrowed (a
/// [`Solver::solve`] called from inside another `with_thread_arena`
/// closure would otherwise double-borrow), `f` gets a fresh throwaway
/// arena instead. Arena reuse never changes results — see
/// [`replica_core::arena`] — so which arena `f` receives is unobservable.
pub fn with_thread_arena<T>(f: impl FnOnce(&mut SolveArena) -> T) -> T {
    SOLVE_ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut SolveArena::new()),
    })
}

/// What a solver optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize Eq. 2 / Eq. 4 reconfiguration cost (replica count in the
    /// classical setting).
    MinCost,
    /// Minimize Eq. 3 power, subject to [`SolveOptions::cost_bound`].
    MinPower,
}

/// Static description of what an algorithm supports.
#[derive(Clone, Copy, Debug)]
pub struct Capabilities {
    /// The objective the solver optimizes.
    pub objective: Objective,
    /// Handles instances with more than one server mode (`M > 1`).
    pub multi_mode: bool,
    /// *Exploits* pre-existing servers (a `false` here means the solver
    /// tolerates them but optimizes as if `E = ∅`, like the oblivious
    /// `GR` baseline).
    pub pre_existing: bool,
    /// Honors [`SolveOptions::cost_bound`].
    pub cost_bound: bool,
    /// Provably optimal for [`Self::objective`] on every instance whose
    /// features it supports.
    pub exact: bool,
    /// Has an amortized budget-sweep path: one run answers every cost
    /// budget (see [`crate::sweep::BudgetSweepSolver`]). Must agree with
    /// [`Solver::as_budget_sweep`] returning `Some`.
    pub amortized_sweep: bool,
}

/// Per-solve knobs shared by every solver.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Budget for `MinPower-BoundedCost` solvers (`f64::INFINITY` =
    /// unconstrained, recovering plain `MinPower`).
    pub cost_bound: f64,
    /// Seed for randomized solvers (simulated annealing). Deterministic
    /// solvers ignore it; the fleet runner derives a distinct value per
    /// instance so fleets are reproducible end to end.
    pub seed: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            cost_bound: f64::INFINITY,
            seed: 0xF1EE7,
        }
    }
}

impl SolveOptions {
    /// Unconstrained options with the given cost budget.
    pub fn with_cost_bound(cost_bound: f64) -> Self {
        SolveOptions {
            cost_bound,
            ..Self::default()
        }
    }
}

/// A solved instance, with metrics re-derived by the model crate.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Name of the producing solver (registry key).
    pub solver: &'static str,
    /// The placement found (modes assigned).
    pub placement: Placement,
    /// Eq. 2 / Eq. 4 cost of the placement, independently re-evaluated.
    pub cost: f64,
    /// Eq. 3 power of the placement, independently re-evaluated.
    pub power: f64,
    /// Server count.
    pub servers: u64,
    /// Reused pre-existing servers (the `e` of Eq. 2).
    pub reused: u64,
    /// Wall-clock time of the algorithm proper (excludes re-evaluation).
    pub wall: Duration,
}

/// Why a solve produced no outcome.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The instance uses a feature outside the solver's [`Capabilities`]
    /// (e.g. multiple modes handed to the single-mode `MinCost` DP).
    Unsupported(String),
    /// The underlying algorithm failed (usually infeasibility).
    Solver(ModelError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Unsupported(msg) => write!(f, "unsupported instance: {msg}"),
            EngineError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        EngineError::Solver(e)
    }
}

/// The uniform algorithm interface.
pub trait Solver: Send + Sync {
    /// Stable registry name (e.g. `"dp_power"`).
    fn name(&self) -> &'static str;

    /// What this solver supports.
    fn capabilities(&self) -> Capabilities;

    /// Solves one instance under an open telemetry span, with
    /// caller-provided working memory — the one method an implementation
    /// writes.
    ///
    /// Phase-aware solvers (the DP wrappers) hang `phase` sub-spans — DP
    /// table build, reconstruction — off `span`; the rest ignore it.
    /// Tracing is strictly out-of-band: the outcome may not depend on the
    /// span in any way (the trace-invariance proptest pins this through
    /// the fleet).
    ///
    /// The fleet runner passes one [`SolveArena`] per worker thread so the
    /// hot solvers (greedy, both power DPs, the `GR` sweep) reuse their
    /// flat-tree layout, DP tables and scratch buffers across jobs instead
    /// of reallocating per solve; the rest ignore it. Arena reuse must be
    /// *bit-invisible* (the equivalence batteries in `replica-core` pin
    /// this through arbitrary reuse sequences).
    fn solve_traced_in(
        &self,
        instance: &Instance,
        options: &SolveOptions,
        span: &replica_obs::Span,
        arena: &mut SolveArena,
    ) -> Result<SolveOutcome, EngineError>;

    /// Solves one instance, untraced, with this thread's arena
    /// ([`with_thread_arena`]). Not meant to be overridden.
    fn solve(
        &self,
        instance: &Instance,
        options: &SolveOptions,
    ) -> Result<SolveOutcome, EngineError> {
        with_thread_arena(|arena| {
            self.solve_traced_in(instance, options, &replica_obs::Span::disabled(), arena)
        })
    }

    /// Whether `instance` is within this solver's capabilities.
    fn supports(&self, instance: &Instance) -> bool {
        let caps = self.capabilities();
        caps.multi_mode || instance.mode_count() == 1
    }

    /// The amortized budget-sweep view of this solver, when it has one.
    ///
    /// `None` (the default) means the registry's sweep entry point falls
    /// back to one [`Solver::solve`] per requested budget
    /// ([`crate::sweep::sweep_via_solves`]).
    fn as_budget_sweep(&self) -> Option<&dyn crate::sweep::BudgetSweepSolver> {
        None
    }
}

/// Builds a [`SolveOutcome`] by re-evaluating `placement` against the
/// model semantics (the single funnel every wrapper goes through).
pub fn evaluated_outcome(
    solver: &'static str,
    instance: &Instance,
    placement: &Placement,
    policy: ModePolicy,
    wall: Duration,
) -> Result<SolveOutcome, EngineError> {
    let solution = Solution::evaluate_with_policy(instance, placement, policy)?;
    Ok(SolveOutcome {
        solver,
        placement: solution.placement.clone(),
        cost: solution.cost,
        power: solution.power,
        servers: solution.counts.total_servers(),
        reused: solution.counts.reused_total(),
        wall,
    })
}

/// Runs `f`, returning its result together with its wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}
