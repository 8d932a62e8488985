"""Registry of mutants: deliberate one-place breakages of `src/revsde` and
the tier-1 tests that must fail on each.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied alone to a temporary copy of `src/`, and its tests
run against that copy. A mutant is killed when every test it lists fails.
Prints one table row per mutant and exits nonzero if a mutant listed as
killed survives, or one listed as a survivor is killed: either way the
registry no longer describes the code. Pytest does not collect this file;
`tests/test_mutants.py` checks, without running any mutant, that each old
text occurs exactly once in its file, so a change that moves the code must
move its mutants too.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str      # under src/revsde
    old: str       # occurs exactly once in the file
    new: str
    tests: tuple   # pytest node ids, each of which must fail
    commit: str    # the commit whose change claimed the kill
    survives: str = ""  # why no test kills it, for a known survivor


SOLVERS, FIELDS = "solvers.py", "fields.py"
T_SOLVERS, T_FIELDS = "tests/test_solvers.py", "tests/test_fields.py"
ADJOINT = f"{T_SOLVERS}::TestAdjointGradients"
UNROLLED = f"{T_SOLVERS}::TestUnrolledBackprop"
FUSED = f"{T_FIELDS}::TestFusedPass"
FD_CHECK = f"{T_FIELDS}::TestFdCheck"

MUTANTS = [
    # The unrolled oracle runs each step once and replays what it kept.
    Mutant("oracle-pullback-evaluates-again", SOLVERS,
           "lambda c: field.vjp(t, z, dt * c, _outer(c, dw))[2:])",
           "lambda c: (field.evaluate(t, z),\n"
           "                            field.vjp(t, z, dt * c, "
           "_outer(c, dw)))[1][2:])",
           (f"{UNROLLED}::test_oracle_budget[midpoint]",
            f"{UNROLLED}::test_oracle_budget[heun]"),
           "98e513d"),
    Mutant("oracle-queries-noise-backward", SOLVERS,
           "            state, dw = records.pop()\n",
           "            state, _ = records.pop()\n"
           "            dw = config.noise.query(config.time(i), "
           "config.time(i + 1))\n",
           (f"{UNROLLED}::test_queries_each_step_once[reversible_heun]",),
           "98e513d"),
    Mutant("oracle-replays-first-step-first", SOLVERS,
           "a, g = records.pop()(a)",
           "a, g = records.pop(0)(a)",
           (f"{UNROLLED}::test_baseline_backward_matches_finite_differences",
            f"{UNROLLED}::test_baseline_checkpoint_cotangents_superpose"
            "[heun]"),
           "98e513d"),
    Mutant("oracle-drops-reversible-checkpoints", SOLVERS,
           "            cot = _revheun_pullback(state, cot, config.dt, dw, "
           "field)\n            if i in cps:\n"
           "                cot.d_z = cot.d_z + cps[i]\n",
           "            cot = _revheun_pullback(state, cot, config.dt, dw, "
           "field)\n",
           (f"{ADJOINT}::test_checkpoint_cotangents_match_unrolled",
            f"{ADJOINT}::test_solve_then_backward_is_the_adjoint"),
           "98e513d"),
    Mutant("baseline-step-unchecked", SOLVERS,
           '    _check_finite(z_next, f"state after {method} step")\n',
           "",
           (f"{UNROLLED}::test_divergence_reports_step_index[heun]",),
           "98e513d"),
    Mutant("oracle-without-round-trip-check", SOLVERS,
           "cot = _revheun_pullback(state, cot, config.dt, dw, field)",
           "cot = _pulled_back(cot, *field.vjp(\n"
           "                state.t, state.zhat, *_field_cotangents(\n"
           "                    cot, config.dt, dw))[2:], config.dt, dw)",
           (f"{ADJOINT}::test_checkpoint_cotangents_match_unrolled",),
           "98e513d",
           survives="the oracle pulls back only tuples its own march made, "
                    "so the check never fires on a correct field"),
    # Mutants quoted by earlier changes whose old text still exists.
    Mutant("round-trip-check-ignores-sigma", SOLVERS,
           "    err = np.maximum(_mismatch(mu, next_state.mu),\n"
           "                     _mismatch(sigma, next_state.sigma))\n",
           "    err = _mismatch(mu, next_state.mu)\n",
           (f"{T_SOLVERS}::TestRevHeunBackwardStep::"
            "test_corrupted_sigma_alone_flagged",),
           "7e375d7"),
    Mutant("sweep-holds-sigma", SOLVERS,
           "    state.sigma = None\n", "",
           (f"{ADJOINT}::test_backward_sweep_frees_what_it_has_read",
            f"{ADJOINT}::test_backward_sweep_holds_one_wide_tape"),
           "4089b4d"),
    Mutant("forward-step-adapter-lambda", SOLVERS,
           "state, _ = _revheun_update(state, t_next, dt, dw, "
           "field.evaluate)",
           "state, _ = _revheun_update(state, t_next, dt, dw,\n"
           "                               lambda t, z: field.evaluate(t, z))",
           (f"{ADJOINT}::test_revsde_calls_per_step",),
           "6ad3b23",
           survives="the fused sweep makes 66 calls per step on Python "
                    "3.11, and the test's bound of 68 leaves room for one "
                    "more call per forward step"),
    Mutant("vjp-uncounted", FIELDS,
           "        self.drift_evals += 1\n        self.diffusion_evals += 1\n"
           "        self.drift_vjp_calls += 1\n"
           "        self.diffusion_vjp_calls += 1\n"
           "        return self._vjp(t, z, d_mu, d_sigma)\n",
           "        return self._vjp(t, z, d_mu, d_sigma)\n",
           (f"{T_FIELDS}::TestLinearize::"
            "test_neural_field_matches_eval_and_vjp_bitwise",
            f"{UNROLLED}::test_oracle_budget[reversible_heun]",
            f"{UNROLLED}::test_oracle_budget[heun]"),
           "4089b4d"),
    Mutant("pullback-returns-scratch-gradient", FIELDS,
           "return d_x[:, :-1], flat.copy()",
           "return d_x[:, :-1], flat",
           (f"{T_FIELDS}::TestScratch::test_vjp_is_independent_of_later_calls"
            "[_scratch_field]",),
           "7e375d7"),
    Mutant("pullback-d_z-scaled", FIELDS,
           "return d_x[:, :-1], flat.copy()",
           "return 1.01 * d_x[:, :-1], flat.copy()",
           (f"{FD_CHECK}::test_width8_lipswish_field",
            f"{FD_CHECK}::test_every_head_over_lipswish_hidden_layers[tanh]"),
           "7e375d7"),
    Mutant("first-layers-copied", FIELDS,
           "            d.weights[0], d.biases[0] = w0[rd], b0[rd]\n"
           "            s.weights[0], s.biases[0] = w0[rs], b0[rs]\n",
           "            d.weights[0], d.biases[0] = w0[rd].copy(), "
           "b0[rd].copy()\n"
           "            s.weights[0], s.biases[0] = w0[rs].copy(), "
           "b0[rs].copy()\n",
           (f"{FUSED}::test_matches_per_network_passes",
            f"{FUSED}::test_stacked_weights_follow_set_params_and_clip"),
           "cee12c6"),
    Mutant("d_z-from-one-stacked-product", FIELDS,
           "        d_x = g0[rd].T.dot(w0[rd])\n"
           "        d_x += g0[rs].T.dot(w0[rs])\n",
           "        d_x = g0.T.dot(w0)\n",
           (f"{FUSED}::test_matches_per_network_passes",),
           "cee12c6"),
    Mutant("fd-check-through-per-kind-vjps", FIELDS,
           "grads = [field.vjp(t, z, c_mu, np.zeros_like(c_sigma))[2:],\n"
           "             field.vjp(t, z, np.zeros_like(c_mu), c_sigma)[2:]]",
           "grads = [field.vjp_drift(t, z, c_mu),\n"
           "             field.vjp_diffusion(t, z, c_sigma)]",
           (f"{ADJOINT}::test_every_gradient_path_differentiates_through_vjp",),
           "7e375d7"),
]


def failed_ids(output: str) -> set:
    """Node ids on pytest's FAILED and ERROR summary lines."""
    return {m.group(1) for m in
            re.finditer(r"^(?:FAILED|ERROR) (\S+)", output, re.M)}


def run(mutant: Mutant) -> tuple[str, int]:
    """('killed' | 'survived', tests failed) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "revsde" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs "
                             f"{text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
    failed = failed_ids(result.stdout) & set(mutant.tests)
    return ("killed" if failed == set(mutant.tests) else "survived",
            len(failed))


def main(names) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(unknown)}")
    bad = 0
    print(f"{'mutant':<38} {'file':<11} {'expected':<9} {'result':<9} "
          f"{'failed':>6} {'s':>5}")
    for mutant in [by_name[n] for n in names] or MUTANTS:
        start = time.perf_counter()
        result, failed = run(mutant)
        expected = "survived" if mutant.survives else "killed"
        bad += result != expected
        print(f"{mutant.name:<38} {mutant.file:<11} {expected:<9} "
              f"{result:<9} {failed:>2}/{len(mutant.tests):<3} "
              f"{time.perf_counter() - start:5.1f}", flush=True)
    if bad:
        print(f"{bad} mutant(s) did not behave as registered")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
