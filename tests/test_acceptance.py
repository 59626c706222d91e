"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Four sub-criteria were first stated with figures that the
model provably does not have; each now checks the property it was
written for in the form derived in notes/decisions.md, and its report
line prints the originally stated figure next to the derived one:

- 1b: the tabulated amplitude-keyed angles meet 1e-4 in the two-level
      reduction; a spin-5/2 transfer goes as p^(2J), so the six-level run
      meets 1 - 2J * 1e-4 = 0.9995, and the closed-form angles 1 - 1e-9.
- 4b: the halving protocol spends n/2 + n/4 + ... + 1 = n - 1 oracle
      queries (stated: 2n, which the single-query n = 2 base case rules
      out), and run_bisection spends exactly that for every hidden index.
- 6b: conjugating by Rx(pi) maps detuning -delta on a program to +delta
      on its mirror image; psk3 is not its own mirror, so the curve itself
      is not even (stated: to 1e-6) and its odd part is only printed.
- 7b: the square-root measurement gives 2/3 right and 1/6 per wrong
      answer, so the posterior after four unanimous outcomes is exactly
      128/129 (stated band [0.986, 0.990] counts three wrong hypotheses).
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from conftest import trotter_propagator
from spinkey import baselines, field_servo, ion_sim, protocols, qsp
from spinkey.protocols import DESIGN_ANGLES
from spinkey.spin_algebra import rotation, spin_operators
from test_spin_algebra import commutator

DESIGN = np.array(DESIGN_ANGLES)


def _report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {detail}")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_01a_psk3_ideal_determinism():
    start = time.perf_counter()
    seq = protocols.psk3_sequence()
    values = [ion_sim.run(seq, i).probabilities[seq.readout_map[i]] for i in range(3)]
    elapsed = time.perf_counter() - start
    ok = all(v >= 0.9999 for v in values) and elapsed < 1.0
    _report("1a", ok,
            f"psk3 ideal branch probabilities {np.round(values, 7).tolist()} "
            f">= 0.9999 in {elapsed:.3f} s")


def test_criterion_01b_ask3_ideal_determinism_verbatim():
    """The tabulated ASK angles were solved in the two-level picture: there
    they meet the stated >= 0.9999. In spin-5/2 the transfer out of an
    extreme level goes as p^(2J), so the same table meets 1 - 2J * 1e-4 in
    the six-level run. The closed-form variant ask3_sequence(exact=True)
    reaches 1 - 1e-9 on every branch."""
    start = time.perf_counter()
    seq = protocols.ask3_sequence()
    two = [ion_sim.run_qubit_reduction(seq, angle)[seq.readout_map[i]]
           for i, angle in enumerate(DESIGN)]
    six = [ion_sim.run(seq, i).probabilities[seq.readout_map[i]] for i in range(3)]
    exact = protocols.ask3_sequence(exact=True)
    exact_values = [ion_sim.run(exact, i).probabilities[exact.readout_map[i]]
                    for i in range(3)]
    elapsed = time.perf_counter() - start
    spin_j = (ion_sim.D_DIM - 1) / 2
    six_bound = 1 - 2 * spin_j * 1e-4
    ok = (all(v >= 0.9999 for v in two)
          and all(v >= six_bound for v in six)
          and all(v >= 1 - 1e-9 for v in exact_values)
          and elapsed < 1.0)
    _report("1b", ok,
            f"ask3 verbatim branch probabilities {np.round(two, 9).tolist()} "
            f"two-level (stated >= 0.9999), {np.round(six, 9).tolist()} six-level "
            f"(>= 1 - 2J*1e-4 = {six_bound:.4f}); closed-form variant "
            f"{np.round(exact_values, 10).tolist()} (>= 1 - 1e-9) in {elapsed:.3f} s; "
            "see notes/decisions.md")


def test_criterion_02_design_angle_identity_and_periodicity():
    rows = []
    for seq in (protocols.psk3_sequence(), protocols.ask3_sequence()):
        table = ion_sim.angle_scan(seq, DESIGN)
        rows.append(np.max(np.abs(table[:, 1:] - np.eye(3))))
    psk = protocols.psk3_sequence()
    grid = np.linspace(0.05, 2.9, 8)
    dev = np.max(np.abs(ion_sim.angle_scan(psk, grid)[:, 1:]
                        - ion_sim.angle_scan(psk, grid + np.pi)[:, 1:]))
    ok = max(rows) <= 1e-3 and dev <= 1e-8
    _report("2", ok,
            f"identity-matrix deviation psk3={rows[0]:.2e}, ask3={rows[1]:.2e} "
            f"(<= 1e-3); pi-periodicity deviation {dev:.2e} (<= 1e-8)")


def test_criterion_03_bisecting_polynomial():
    exact = (qsp.bisecting_poly(1.0) == 1.0
             and qsp.bisecting_poly(0.5) == 0.0
             and qsp.bisecting_poly(-0.5) == 0.0)
    phases = qsp.find_phases(qsp.PolynomialSpec.bisecting())
    point_errs = [abs(abs(qsp.qsp_unitary(phases, a)[0, 0]) ** 2 - t)
                  for a, t in ((1.0, 1.0), (0.5, 0.0), (-0.5, 0.0))]
    comp_err = 0.0
    for a in np.linspace(-1 + 1e-6, 1 - 1e-6, 101):
        p, q = qsp.polynomial_entries(phases, a)
        comp_err = max(comp_err, abs(abs(p) ** 2 + (1 - a * a) * abs(q) ** 2 - 1))
    ok = exact and max(point_errs) <= 1e-8 and comp_err <= 1e-10
    _report("3", ok,
            f"anchor values exact={exact}; |P|^2 target error {max(point_errs):.2e} "
            f"(<= 1e-8); completion identity error {comp_err:.2e} (<= 1e-10)")


def test_criterion_04a_bisection_certainty():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 4, 8):
        proto = protocols.bisection_protocol(n)
        for hidden in range(n):
            identified, _, margin = protocols.run_bisection(proto, hidden)
            assert identified == hidden
            worst = max(worst, margin)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report("4a", ok,
            f"every hidden index identified for n in (2,4,8); worst probability "
            f"margin {worst:.2e} (<= 1e-8) in {elapsed:.2f} s")


def test_criterion_04b_bisection_query_count():
    """The Chebyshev stages have degrees n/2, n/4, ..., 1, which total
    n - 1 oracle queries; the stated 2n contradicts the single-query
    n = 2 base case. The protocol's own count must equal what
    run_bisection spends for every hidden index."""
    totals, used = {}, {}
    for n in (2, 4, 8):
        proto = protocols.bisection_protocol(n)
        totals[n] = proto.total_queries
        used[n] = sorted({protocols.run_bisection(proto, hidden)[1]
                          for hidden in range(n)})
    ok = all(totals[n] == n - 1 and used[n] == [n - 1] for n in totals)
    _report("4b", ok,
            f"query counts {totals} (n - 1 = {{2: 1, 4: 3, 8: 7}}; stated 2n = "
            f"{{2: 4, 4: 8, 8: 16}}); run_bisection spent {used} over all hidden "
            "indices (see notes/decisions.md)")


def test_criterion_05_wrap_identity_and_disambiguation():
    worst = 0.0
    for dim in (2, 6):
        for phi in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            wrapped = protocols.psk_to_ask_wrap(phi, dim)
            trace = abs(np.trace(wrapped.conj().T @ rotation(dim, 2 * phi, 0.0)))
            worst = max(worst, abs(trace - dim))
    step = protocols.even_psk_disambiguation((np.pi / 3, np.pi / 3 + np.pi))
    p_min = min(protocols.run_disambiguation(step, which)[1] for which in (0, 1))
    ok = worst <= 1e-10 and p_min >= 1 - 1e-9 and step.extra_queries == 1
    _report("5", ok,
            f"wrap-trace deviation {worst:.2e} (<= 1e-10) over 64 phases x dims 2,6; "
            f"disambiguation success {p_min:.12f} with exactly 1 extra query")


def test_criterion_06a_detuning_budget_threshold():
    seq = protocols.psk3_sequence()
    grid = np.array([-30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0])
    table = ion_sim.detuning_scan(seq, grid)
    ok = bool(np.all(table[:, 1] >= 0.99))
    _report("6a", ok,
            f"psk3 min accuracy over |detuning| <= 30 Hz is "
            f"{table[:, 1].min():.6f} (>= 0.99) at 55 us pi-time")


def _mirror_image(seq, config):
    """The program conjugated by Rx(pi), which maps Jz -> -Jz and Jy -> -Jy:
    every rf axis phi becomes -phi and metastable level i becomes 5 - i.
    Laser phases stay: Rx(pi) gives each metastable level a phase, so the
    mirrored laser phase is the old one plus a constant, the same for every
    laser pulse of the pair, and a phase common to all laser pulses is a
    gauge of the ground levels that no readout sees. Mapping a laser phi to
    -phi would be wrong for any swap short of a full pi-swap."""
    def flip(level):
        return ion_sim.D_DIM - 1 - level if level < ion_sim.D_DIM else level

    pulses = tuple(p if p.channel == protocols.LASER else
                   replace(p, phi=-p.phi, oracle_phase_offset=-p.oracle_phase_offset)
                   for p in seq.pulses)
    mirrored = replace(config,
                       init_level=flip(config.init_level),
                       couple_pair=tuple(map(flip, config.couple_pair)),
                       readout_pairs=tuple(tuple(map(flip, pair))
                                           for pair in config.readout_pairs))
    return replace(seq, pulses=pulses), mirrored


def test_criterion_06b_detuning_curve_evenness():
    """Detuning -delta on a program equals +delta on its mirror image
    (angles and candidate angles negated, levels i -> 5 - i). psk3 is not
    its own mirror image, so the stated evenness of its own curve to 1e-6
    does not hold; its odd part (~1e-4 at 30 Hz) is printed, not bounded.
    The second config adds gaps and laser time, exercising free evolution."""
    seq = protocols.psk3_sequence()
    grid = np.array([10.0, 20.0, 30.0])
    mirrored_angles = tuple(-DESIGN)
    base = ion_sim.default_config(seq)
    mirror_devs, odd = [], []
    for config in (base, replace(base, pulse_gap_s=7e-6, laser_time_s=3e-6)):
        mirror_seq, mirror_config = _mirror_image(seq, config)
        minus = ion_sim.detuning_scan(seq, -grid, config=config)[:, 1]
        plus = ion_sim.detuning_scan(seq, grid, config=config)[:, 1]
        mirrored = ion_sim.detuning_scan(mirror_seq, grid, config=mirror_config,
                                         candidate_angles=mirrored_angles)[:, 1]
        mirror_devs.append(float(np.max(np.abs(minus - mirrored))))
        odd.append(np.abs(plus - minus))
    ok = max(mirror_devs) <= 1e-12
    _report("6b", ok,
            f"mirror-identity deviations {['%.1e' % d for d in mirror_devs]} "
            f"(<= 1e-12) at 10/20/30 Hz, without and with gaps; psk3 curve "
            f"evenness deviations {[['%.2e' % d for d in o] for o in odd]} (stated <= 1e-6; "
            "physical, not bounded; see notes/decisions.md)")


def test_criterion_07a_baseline_values():
    start = time.perf_counter()
    triad = baselines.symmetric_states(3)
    me1 = baselines.me_single_shot(triad)
    maj4 = baselines.me_majority(triad, 4)
    ud1 = baselines.ud_success(triad)
    ud4 = baselines.ud_multi(triad, 4)
    elapsed = time.perf_counter() - start
    ok = (abs(me1 - 2 / 3) <= 1e-10
          and 0.73 <= maj4 <= 0.75
          and abs(ud1 - 0.5) <= 1e-12
          and abs(ud4 - 0.9375) <= 1e-12
          and elapsed < 5.0)
    _report("7a", ok,
            f"single-shot {me1:.12f} (2/3), majority-of-4 {maj4:.6f} "
            f"(in [0.73, 0.75]), UD {ud1:.12f} (1/2), 4-trial UD {ud4:.12f} "
            f"(0.9375) in {elapsed:.2f} s")


def test_criterion_07b_posterior_band():
    """The square-root measurement on the triad answers right with 2/3 and
    each of the two wrong hypotheses with 1/6, so after k unanimous
    outcomes the posterior is (2/3)^k / ((2/3)^k + 2 (1/6)^k): 2/3 at k = 1
    and 128/129 = 0.99225 at k = 4. The stated band [0.986, 0.990] is
    reproduced only by counting three wrong hypotheses (256/259), which
    would also break the k = 1 value."""
    triad = baselines.symmetric_states(3)
    expected = {1: Fraction(2, 3), 4: Fraction(128, 129)}
    values = {k: baselines.posterior_all_agree(triad, k) for k in expected}
    ok = all(abs(values[k] - float(expected[k])) <= 1e-12 for k in expected)
    _report("7b", ok,
            f"posterior after four unanimous outcomes {values[4]:.12f} (128/129; "
            f"stated [0.986, 0.990]), after one {values[1]:.12f} (2/3) "
            "(see notes/decisions.md)")


def test_criterion_08_su6_algebra_and_rabi():
    ops = spin_operators(6)
    comm = max(
        float(np.max(np.abs(commutator(ops.jx, ops.jy) - 1j * ops.jz))),
        float(np.max(np.abs(commutator(ops.jy, ops.jz) - 1j * ops.jx))),
        float(np.max(np.abs(commutator(ops.jz, ops.jx) - 1j * ops.jy))),
    )
    full_turn = float(np.max(np.abs(rotation(6, 2 * np.pi, 0.0) + np.eye(6))))
    flip = rotation(6, np.pi, 0.0)
    anti = np.fliplr(np.eye(6)).astype(bool)
    antidiag = (np.max(np.abs(np.abs(flip[anti]) - 1)) < 1e-12
                and np.max(np.abs(flip[~anti])) < 1e-12)
    config = ion_sim.ExperimentConfig()
    _, pops = ion_sim.rabi_curve(np.array([config.pi_time]), start_level=4,
                                 config=config)
    transfer = float(pops[0, 1])
    ok = comm <= 1e-12 and full_turn <= 1e-12 and antidiag and transfer >= 1 - 1e-10
    _report("8", ok,
            f"commutator residual {comm:.2e} (<= 1e-12); 2pi rotation vs -1 "
            f"{full_turn:.2e}; flip anti-diagonal {antidiag}; 55 us transfer "
            f"{transfer:.12f} (>= 1 - 1e-10)")


def test_criterion_09_servo_and_allan():
    start = time.perf_counter()
    _, y_white = field_servo.DriftModel(white_sigma1=1e-6).generate(4096, seed=1)
    taus = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0])
    sigma = field_servo.allan_deviation(y_white, taus)
    slope = float(np.polyfit(np.log(taus), np.log(sigma), 1)[0])

    _, y_preset = field_servo.DriftModel.lab().generate(4000, seed=3)
    sigma10 = float(field_servo.allan_deviation(y_preset, [10.0])[0])

    trace = field_servo.simulate_servo(field_servo.DriftModel.lab(),
                                       field_servo.ServoConfig.lab(), 600, seed=7)
    contained = float(np.mean(np.abs(trace.residual_hz) <= 30.0))
    budget = field_servo.detuning_error_budget(trace.residual_hz)
    elapsed = time.perf_counter() - start
    ok = (abs(slope + 0.5) <= 0.1 and sigma10 <= 2e-7 and contained >= 0.99
          and 0.001 <= budget <= 0.006 and elapsed < 60.0)
    _report("9", ok,
            f"white-FM slope {slope:.3f} (-0.5 +/- 0.1); preset sigma_y(10 s) "
            f"{sigma10:.2e} (<= 2e-7); residual containment {contained:.4f} "
            f"(>= 0.99); budget {budget * 100:.3f}% (in [0.1%, 0.6%]) "
            f"in {elapsed:.1f} s")


def test_criterion_10_oracle_equivalence():
    ops = spin_operators(6)
    config = ion_sim.ExperimentConfig()
    rng = np.random.default_rng(20)
    worst_trotter = 0.0
    for _ in range(20):
        theta = rng.uniform(0.05, 2 * math.pi)
        phi = rng.uniform(0.0, 2 * math.pi)
        delta = rng.uniform(-2000.0, 2000.0)
        u = ion_sim.rf_unitary(theta, phi, ion_sim.NoiseModel(detuning_hz=delta),
                               config)
        j_phi = math.cos(phi) * ops.jx + math.sin(phi) * ops.jy
        ref = trotter_propagator(2 * math.pi * delta * np.asarray(ops.jz),
                                 config.rabi_freq * np.asarray(j_phi),
                                 theta / config.rabi_freq)
        worst_trotter = max(worst_trotter, float(np.max(np.abs(u - ref))))

    seq = protocols.ask3_sequence(exact=True)
    worst_equiv = 0.0
    for index, angle in enumerate(DESIGN):
        two = ion_sim.run_qubit_reduction(seq, angle)
        six = ion_sim.run(seq, index).probabilities[:3]
        worst_equiv = max(worst_equiv, float(np.max(np.abs(two - six))))
    ok = worst_trotter <= 1e-8 and worst_equiv <= 1e-8
    _report("10", ok,
            f"20 detuned pulses vs 1e4-step Trotter: {worst_trotter:.2e} (<= 1e-8); "
            f"two-level vs six-level runs at design angles: {worst_equiv:.2e} "
            f"(<= 1e-8, exact-angle variant; the verbatim table agrees to 4e-4)")
