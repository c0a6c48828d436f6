"""Finding records and the analysis rule registry.

Every rule this package enforces exists because one class of bug would
silently corrupt the reproduction's bit-identical guarantee (golden
chaos traces, ``repro diff`` gating, the paper's same-trace policy
comparisons).  The registry below is the single source of truth: the
linter, the reports, the baseline format and the docs all read it.

Rules are grouped into families by id prefix:

* ``REP0xx`` — determinism (per-file AST);
* ``REP1xx`` — numeric-kernel purity (per-file AST, scoped to kernel
  directories via :attr:`Rule.scope_paths`);
* ``REP2xx`` — concurrency & resource lifecycle (per-file AST);
* ``AUDxxx`` — cross-module contract auditors (project-level pass).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "ALL_RULE_IDS",
    "DEFAULT_RULE_IDS",
    "FAMILIES",
    "Finding",
    "RULES",
    "Rule",
    "is_rule_id",
    "rule_family",
]


@dataclass(frozen=True)
class Rule:
    """One analysis rule: stable id, summary and rationale."""

    rule_id: str
    summary: str
    rationale: str
    #: Path suffixes (posix) where the rule does not apply — the one
    #: module that legitimately owns the flagged construct.
    exempt_paths: tuple[str, ...] = ()
    #: Posix path fragments the rule is *scoped to*: when non-empty the
    #: rule only fires on files whose path contains one of them.  Used
    #: by the REP1xx kernel-purity family, which would drown
    #: general-purpose code in noise.
    scope_paths: tuple[str, ...] = ()
    #: One-line autofix hint appended to every message for this rule.
    hint: str = ""


#: Directories holding numeric kernels — the REP1xx family only fires
#: under these fragments.  Future kernel packages (mean-field backend,
#: hierarchy-aware placement) add their directory here.
_KERNEL_SCOPE: tuple[str, ...] = ("sim/columnar/",)

#: The project's analysis rules, keyed by stable id.  Ids are append
#: only: a retired rule keeps its number so old ``noqa`` comments and
#: baselines never silently change meaning.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "REP001",
            "unseeded or global RNG use",
            "Draws from `random.*` or `numpy.random.*` module state (or an "
            "unseeded `Random()`/`default_rng()`) bypass the per-run "
            "`RngTree`; one stray draw perturbs every stream that shares "
            "the global state and breaks same-seed reproducibility.  Draw "
            "from a named `rng_tree.stream(...)` instead.",
            exempt_paths=("sim/rng.py",),
        ),
        Rule(
            "REP002",
            "wall-clock read",
            "`time.time()`, `perf_counter()` and `datetime.now()` differ "
            "between runs by construction; any value derived from them "
            "that reaches simulation state or output breaks bit-identical "
            "replay.  Timing belongs in `obs/profiler.py` and "
            "`obs/perf/profiler.py`, which are measurement-only by "
            "contract.",
            exempt_paths=("obs/profiler.py", "obs/perf/profiler.py"),
        ),
        Rule(
            "REP003",
            "order-sensitive iteration over a set",
            "Iterating a `set`/`frozenset` (or set algebra over dict "
            "views) feeds hash order into an ordering-sensitive sink — "
            "list building, first-match selection, RNG draws, float "
            "accumulation.  Hash order is not part of the language "
            "contract (string hashes are salted per process); wrap the "
            "iterable in `sorted(...)` or use an order-insensitive "
            "reduction.",
        ),
        Rule(
            "REP004",
            "float equality comparison",
            "`==`/`!=` against a float value is exact bit comparison; a "
            "reordered accumulation or an optimisation that changes "
            "rounding flips the branch.  Compare with a tolerance "
            "(`math.isclose`) or restructure; suppress only where exact "
            "comparison is the point (e.g. an exactly-zero sentinel).",
        ),
        Rule(
            "REP005",
            "mutable default argument",
            "A mutable default (`def f(x=[])`) is shared across calls: "
            "state leaks between invocations and between simulations, "
            "making behaviour depend on call history instead of the "
            "seed.  Default to `None` and construct inside the body.",
        ),
        Rule(
            "REP006",
            "non-literal RNG stream name",
            "`rng_tree.stream(name)` with a computed name makes the "
            "stream registry impossible to audit statically: `repro lint` "
            "and reviewers can no longer enumerate every stream a run "
            "draws from.  Pass a string literal at the call site.",
        ),
        # --- Family REP1xx: numeric-kernel purity (kernel dirs only) ---
        Rule(
            "REP101",
            "implicit dtype promotion in a kernel",
            "Mixing int64 and float64 arrays (or true-dividing an int64 "
            "array) relies on numpy's implicit promotion rules; the "
            "columnar engine's bit-identical contract requires every "
            "dtype transition to be explicit so scalar and vector paths "
            "round identically.  Summing a bool array upcasts twice "
            "(bool→int64→float64) behind the caller's back.",
            scope_paths=_KERNEL_SCOPE,
            hint="cast at the boundary with .astype(np.float64) (or use "
            "np.count_nonzero / an explicit dtype= for bool reductions)",
        ),
        Rule(
            "REP102",
            "order-sensitive reduction over unordered input",
            "Float accumulation is not associative: reducing a set (or a "
            "generator over one) feeds hash order into the rounding "
            "sequence, so the same values can sum to different bits on "
            "different runs.  Kernel reductions must consume a "
            "deterministically ordered sequence.",
            scope_paths=_KERNEL_SCOPE,
            hint="sort first — np.add.reduce(np.sort(...)) or "
            "functools.reduce(operator.add, sorted(...), 0.0) (builtin "
            "sum() of floats is compensated since Python 3.12)",
        ),
        Rule(
            "REP103",
            "hidden array copy in a hot path",
            "`.flatten()` always copies where `.ravel()` usually aliases; "
            "`np.append`/loop concatenation reallocates the whole array "
            "per call (quadratic); chained indexing (`a[i][j] = v`) "
            "writes into the temporary a fancy first index copies out.  "
            "Kernels are the per-epoch hot path — hidden copies are "
            "exactly the cost the columnar engine exists to remove.",
            scope_paths=_KERNEL_SCOPE,
            hint="use .ravel(), preallocate + fill, or a single "
            "a[i, j] = v fancy-index write",
        ),
        Rule(
            "REP104",
            "python-level loop over an ndarray in a kernel",
            "`for x in array:` boxes every element into a PyObject and "
            "runs the loop in the interpreter — the scalar-engine cost "
            "profile the columnar kernels were built to escape.  "
            "Intentional scalar-reference branches iterate an explicit "
            "`.tolist()` so the boxing is visible.",
            scope_paths=_KERNEL_SCOPE,
            hint="vectorise the loop body, or make the scalar fallback "
            "explicit with .tolist()",
        ),
        # --- Family REP2xx: concurrency & resource lifecycle ----------
        Rule(
            "REP201",
            "process/thread/queue without cleanup in a finally",
            "A `Process`/`Thread`/`Pool`/`Queue` whose `join`/`close`/"
            "`terminate` only runs on the happy path leaks workers and "
            "feeder threads when the orchestrating loop raises: the "
            "parent hangs at interpreter exit or strands children.  "
            "Cleanup must be reachable on the exception path.",
            hint="move join/close/terminate into a finally: block (or "
            "use the object as a context manager)",
        ),
        Rule(
            "REP202",
            "blocking queue get without a timeout",
            "`Queue.get()` with no timeout blocks forever when the "
            "producer died — precisely the crashed-worker case the sweep "
            "watchdog exists for.  A bounded `get(timeout=...)` loop "
            "keeps the supervisor responsive to worker death.",
            hint="use get(timeout=...) in a loop that re-checks liveness",
        ),
        Rule(
            "REP203",
            "os._exit outside a worker entry point",
            "`os._exit` skips finally blocks, atexit hooks and buffered "
            "I/O flushes.  In a fork worker's entry path that is the "
            "point (don't run the parent's cleanup twice); anywhere else "
            "it silently drops artifacts mid-write.",
            hint="raise SystemExit / return an exit code; keep os._exit "
            "in worker entry functions only",
        ),
        Rule(
            "REP204",
            "fork-unsafe module state mutated from a worker target",
            "A module-level mutable mutated inside a function used as a "
            "`Process` target changes a *copy* under fork (each child "
            "has its own heap) and does not exist yet under spawn: the "
            "parent never sees the writes, so the mutation is at best "
            "dead and at worst a divergence between start methods.",
            hint="pass state through args/queues and return results "
            "explicitly",
        ),
        Rule(
            "REP205",
            "daemon thread without a shutdown path",
            "A daemon thread with no `join` is killed mid-statement at "
            "interpreter exit — mid-write for anything holding a file or "
            "queue.  Daemonising is a backstop, not a shutdown protocol.",
            hint="signal the thread to stop (Event) and join(timeout=...) "
            "in a finally",
        ),
        # --- Family AUD: cross-module contract auditors ---------------
        Rule(
            "AUD001",
            "columnar override missing differential coverage",
            "Every `Simulation` hook `ColumnarSimulation` overrides is a "
            "place the two engines can disagree; the bit-identical "
            "equivalence suite only defends hooks it knows about.  An "
            "override absent from the differential test list is an "
            "unguarded divergence surface.",
            hint="add the hook name to DIFFERENTIAL_HOOKS in "
            "tests/test_columnar_equivalence.py (with a covering test)",
        ),
        Rule(
            "AUD002",
            "reason literal bypasses sim/reasons.py",
            "Decision reasons and causes are a closed vocabulary defined "
            "once in `repro.sim.reasons`; a re-spelled literal compiles "
            "fine but silently splits a category across traces, "
            "provenance, time-series columns and root-cause tables the "
            "moment either copy drifts.",
            hint="import the constant from repro.sim.reasons",
        ),
        Rule(
            "AUD003",
            "versioned artifact without a version-rejection test",
            "Every `repro-*` artifact loader rejects unknown versions so "
            "a future format bump fails loudly instead of misparsing; "
            "that rejection path is dead code until a test feeds it a "
            "bumped version.  Formats without such a test have an "
            "unverified forward-compat story.",
            hint="add a test that loads the artifact with version+1 and "
            "asserts the loader raises",
        ),
    )
}

ALL_RULE_IDS: tuple[str, ...] = tuple(sorted(RULES))


def rule_family(rule_id: str) -> str:
    """The family prefix a rule belongs to (``REP0``/``REP1``/``REP2``/
    ``AUD``)."""
    if rule_id.startswith("AUD"):
        return "AUD"
    return rule_id[:4]


#: Every family prefix, in registry order.
FAMILIES: tuple[str, ...] = tuple(
    sorted({rule_family(rule_id) for rule_id in ALL_RULE_IDS})
)

#: Rules checked when no ``--select`` is given: every per-file REP rule.
#: The AUD project pass needs a repository root (it reads files far from
#: the linted paths), so it is opt-in via ``--select AUD``.
DEFAULT_RULE_IDS: tuple[str, ...] = tuple(
    rule_id for rule_id in ALL_RULE_IDS if rule_id.startswith("REP")
)


def is_rule_id(text: str) -> bool:
    """Whether ``text`` names a known rule (exact, case-sensitive)."""
    return text in RULES


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source line.

    ``path`` is stored posix-relative to the lint invocation's working
    directory when possible so baselines and CI annotations are
    machine-independent.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: The stripped source line, for reports and baseline fingerprints.
    snippet: str = ""
    #: 0-based index of this finding among same-(path, rule, snippet)
    #: findings in the file — keeps fingerprints stable when unrelated
    #: lines move, yet distinct for repeated identical lines.
    occurrence: int = 0
    #: Set when a `# repro: noqa[...]` comment on the line covers it.
    suppressed: bool = field(default=False, compare=False)
    #: Set when the committed baseline grandfathers it.
    baselined: bool = field(default=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        payload = f"{self.path}\0{self.rule_id}\0{self.snippet}\0{self.occurrence}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def active(self) -> bool:
        """Whether the finding should gate (not suppressed, not baselined)."""
        return not (self.suppressed or self.baselined)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }
