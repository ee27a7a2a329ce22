import numpy as np
import pytest
from hypothesis import given, strategies as st

from abprobe.kalman import (
    EstimateRecord,
    FilterConfig,
    FilterState,
    initial_state,
    predict,
    process_sequence,
    update_sequential,
    update_vector,
)
from abprobe.probing import StrainMeasurement, gate_mask

C_REF = 1.2e7


def make_state(x=(1.0, -0.5), psi=None, lam=1e-4, c_ref=C_REF):
    psi = np.eye(2) if psi is None else np.asarray(psi, dtype=float)
    return FilterState(x=np.asarray(x, dtype=float), psi=psi, lam=lam, c_ref=c_ref)


def make_meas(z, rates, r):
    return StrainMeasurement(
        z=np.asarray(z, dtype=float),
        rates=np.asarray(rates, dtype=float),
        r_diag=np.asarray(r, dtype=float),
    )


def random_case(rng, p):
    x = rng.normal(0.0, 2.0, 2)
    a = rng.normal(0.0, 1.0, (2, 2))
    psi = a @ a.T + 1e-3 * np.eye(2)
    state = make_state(x=x, psi=psi)
    meas = make_meas(
        z=rng.normal(0.0, 1.0, p),
        rates=rng.uniform(0.05, 1.0, p) * C_REF,
        r=rng.uniform(1e-6, 0.5, p),
    )
    return state, meas


def rel_diff(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / scale


# -- predict ------------------------------------------------------------------

def test_predict_zero_lambda_keeps_covariance():
    st_ = make_state(lam=0.0)
    out = predict(st_)
    assert np.array_equal(out.psi, st_.psi)
    assert np.array_equal(out.x, st_.x)


def test_predict_adds_lambda_identity():
    st_ = make_state(psi=np.eye(2), lam=0.5)
    assert np.allclose(predict(st_).psi, 1.5 * np.eye(2))


@given(seed=st.integers(0, 200))
def test_predict_preserves_symmetry(seed):
    rng = np.random.default_rng(seed)
    state, _ = random_case(rng, 2)
    out = predict(state)
    assert np.array_equal(out.psi, out.psi.T)


# -- scalar update hand values ---------------------------------------------------

def test_scalar_update_gain_half():
    # known-capacity scalar reduction: psi=1, R=1 -> gain 0.5, psi' = 0.5
    state = make_state(x=(0.0, 0.0), psi=[[0.0, 0.0], [0.0, 1.0]], lam=0.0)
    meas = make_meas(z=[1.0], rates=[0.0], r=[1.0])  # row [0, 1]: beta only
    out = update_sequential(state, meas)
    assert out.psi[1, 1] == pytest.approx(0.5, rel=1e-12)
    assert out.x[1] == pytest.approx(0.5, rel=1e-12)


def test_scalar_two_step_hand_iteration():
    # psi0=1, R1=1 -> psi=0.5; R2=0.5 -> gain 0.5, psi=0.25
    state = make_state(x=(0.0, 0.0), psi=[[0.0, 0.0], [0.0, 1.0]], lam=0.0)
    meas = make_meas(z=[1.0, 1.0], rates=[0.0, 0.0], r=[1.0, 0.5])
    out = update_sequential(state, meas)
    assert out.psi[1, 1] == pytest.approx(0.25, rel=1e-12)


def test_scalar_update_shrinks_diagonal():
    rng = np.random.default_rng(8)
    for _ in range(50):
        state, meas = random_case(rng, 3)
        out = update_sequential(state, meas)
        assert out.psi[0, 0] <= state.psi[0, 0] + 1e-12
        assert out.psi[1, 1] <= state.psi[1, 1] + 1e-12


# -- sequential/vector equivalence ------------------------------------------------

def test_p1_sequential_equals_vector():
    rng = np.random.default_rng(1)
    state, meas = random_case(rng, 1)
    a = update_sequential(state, meas)
    b = update_vector(state, meas)
    assert rel_diff(a.x, b.x) < 1e-12
    assert rel_diff(a.psi, b.psi) < 1e-12


@given(seed=st.integers(0, 300), p=st.integers(1, 6))
def test_sequential_equals_vector_property(seed, p):
    rng = np.random.default_rng(seed)
    state, meas = random_case(rng, p)
    a = update_sequential(state, meas)
    b = update_vector(state, meas)
    assert rel_diff(a.x, b.x) < 1e-9
    assert rel_diff(a.psi, b.psi) < 1e-9


@given(seed=st.integers(0, 200))
def test_update_order_insensitive(seed):
    rng = np.random.default_rng(seed)
    state, meas = random_case(rng, 4)
    fwd = update_sequential(state, meas)
    rev = update_sequential(
        state,
        make_meas(meas.z[::-1].copy(), meas.rates[::-1].copy(), meas.r_diag[::-1].copy()),
    )
    assert rel_diff(fwd.x, rev.x) < 1e-9
    assert rel_diff(fwd.psi, rev.psi) < 1e-9


def test_uninformative_measurement_changes_nothing():
    rng = np.random.default_rng(5)
    state, meas = random_case(rng, 3)
    huge_r = make_meas(meas.z, meas.rates, meas.r_diag * 1e9)
    out = update_vector(state, huge_r)
    assert rel_diff(out.x, state.x) < 1e-6
    assert rel_diff(out.psi, state.psi) < 1e-6


@given(seed=st.integers(0, 300), p=st.integers(1, 5))
def test_updates_preserve_psd(seed, p):
    rng = np.random.default_rng(seed)
    state, meas = random_case(rng, p)
    for op in (update_sequential, update_vector):
        out = op(state, meas)
        eig = np.linalg.eigvalsh(out.psi)
        assert eig.min() >= -1e-12
        assert np.array_equal(out.psi, out.psi.T)


def test_gating_skips_portions():
    state = make_state(psi=np.eye(2))
    meas = make_meas(z=[0.0, 0.4], rates=[0.3 * C_REF, 0.8 * C_REF], r=[0.01, 0.01])
    gated = update_sequential(state, meas, gate_threshold=0.005)
    only_second = update_sequential(
        state, make_meas([0.4], [0.8 * C_REF], [0.01])
    )
    assert rel_diff(gated.x, only_second.x) < 1e-12
    assert rel_diff(gated.psi, only_second.psi) < 1e-12


def test_all_gated_is_noop():
    state = make_state()
    meas = make_meas(z=[0.001, -0.002], rates=[5e6, 7e6], r=[0.01, 0.01])
    out = update_sequential(state, meas, gate_threshold=0.005)
    assert np.array_equal(out.x, state.x)
    assert np.array_equal(out.psi, state.psi)
    out_v = update_vector(state, meas, gate_threshold=0.005)
    assert np.array_equal(out_v.x, state.x)


# -- AB readout ---------------------------------------------------------------

def cfg(**kw):
    base = dict(c_ref=C_REF, psi0=1.0, initial_ab=0.5 * C_REF, ab_cap=C_REF)
    base.update(kw)
    return FilterConfig(**base)


def readout(x, last_ab=0.5 * C_REF):
    """The AB readout of state x: a process_sequence step that neither
    predicts (lam 0) nor updates (its one portion gated)."""
    state = make_state(x=x, lam=0.0)
    new_state, rec = process_sequence(state, make_meas([0.0], [C_REF], [1.0]), cfg(), last_ab)
    assert rec.portions_used == 0
    assert np.array_equal(new_state.x, state.x) and np.array_equal(new_state.psi, state.psi)
    return rec


def test_ab_estimate_example_value():
    # alpha = 1e-7 s/bit, beta = -0.62 -> 6.2 Mbit/s
    rec = readout((1e-7 * C_REF, -0.62))
    assert rec.ab_hat == pytest.approx(6.2e6, rel=1e-12)
    assert not rec.degenerate


def test_ab_estimate_clamps_negative():
    rec = readout((1e-7 * C_REF, 0.3))  # beta >= 0 -> raw <= 0
    assert rec.raw_ab < 0
    assert rec.ab_hat == 0.0


def test_ab_estimate_exact_inversion():
    c, y = 1e7, 4e6
    rec = readout(((1.0 / c) * C_REF, (y - c) / c))
    assert rec.ab_hat == pytest.approx(c - y, rel=1e-12)


def test_ab_estimate_degenerate_holds_last():
    rec = readout((1e-12 * C_REF, -0.5), last_ab=3.3e6)  # alpha below 1e-3/c_ref
    assert rec.degenerate
    assert rec.ab_hat == 3.3e6


def test_ab_estimate_cap():
    rec = readout((0.01, -1.0))  # raw = c_ref/0.01 >> cap
    assert rec.ab_hat == C_REF


# -- full sequence step -----------------------------------------------------------

def test_process_sequence_converges_on_noiseless_line():
    # exact strains from the fluid law with all rates above the break:
    # estimate within 0.1% of C - y inside 20 sequences
    c, y = 1e7, 4e6
    config = cfg(lam=1e-4, initial_ab=3e6)
    state = initial_state(config)
    last = config.initial_ab
    rng = np.random.default_rng(17)
    for k in range(20):
        rates = rng.uniform(7e6, 1.2e7, 3)
        z = rates / c + (y - c) / c
        meas = make_meas(z, rates, [1e-6] * 3)
        state, rec = process_sequence(state, meas, config, last)
        last = rec.ab_hat
    assert abs(rec.ab_hat - (c - y)) < 1e-3 * c


def test_process_sequence_all_gated_carries_over():
    config = cfg(lam=1e-4, initial_ab=5e6)
    state = initial_state(config)
    meas = make_meas([0.0, 0.0], [2e6, 3e6], [1e-6, 1e-6])
    new_state, rec = process_sequence(state, meas, config, last_ab=5e6)
    assert rec.portions_used == 0
    assert np.array_equal(new_state.x, state.x)
    assert np.allclose(new_state.psi, state.psi + config.lam * np.eye(2))
    assert rec.ab_hat == pytest.approx(-state.x[1] / state.x[0] * C_REF)


@given(seed=st.integers(0, 300), p=st.integers(1, 6), gate=st.sampled_from([0.0, 0.005]))
def test_process_sequence_is_the_step_the_oracle_replays(seed, p, gate):
    # predict then update_sequential, bit for bit; the joint update to 1e-9
    rng = np.random.default_rng(seed)
    state, meas = random_case(rng, p)
    z = meas.z * rng.choice([0.0, 1e-3, 1.0], p)  # zero, under the 0.005 gate, as drawn
    meas = make_meas(z, meas.rates, meas.r_diag)
    got, rec = process_sequence(state, meas, cfg(gate_threshold=gate), 0.5 * C_REF)
    want = update_sequential(predict(state), meas, gate)
    assert np.array_equal(got.x, want.x) and np.array_equal(got.psi, want.psi)
    joint = update_vector(predict(state), meas, gate)
    assert rel_diff(got.x, joint.x) < 1e-9
    assert rel_diff(got.psi, joint.psi) < 1e-9
    assert rec.portions_used == gate_mask(meas, gate).sum()


def test_negative_gate_threshold_is_refused():
    state, meas = random_case(np.random.default_rng(3), 2)
    for op in (update_sequential, update_vector):
        with pytest.raises(ValueError, match="gate_threshold must be >= 0"):
            op(state, meas, -0.1)
    with pytest.raises(ValueError, match="gate_threshold must be >= 0"):
        cfg(gate_threshold=-0.1)


@pytest.mark.parametrize("name", ["initial_ab", "lam", "psi0"])
@pytest.mark.parametrize("value", [-1.0, -1e6, float("nan")])
def test_negative_or_nan_filter_value_is_refused(name, value):
    with pytest.raises(ValueError, match=f"{name} must be >= 0"):
        cfg(**{name: value})


def test_zero_initial_ab_is_accepted():
    assert cfg(initial_ab=0.0).initial_ab == 0.0


def test_initial_ab_above_the_readout_cap_is_refused():
    # the readout is clamped to ab_cap, so a larger guess could never be read out
    with pytest.raises(ValueError, match=r"initial_ab 2\.4e\+07 must be <= ab_cap 1\.2e\+07"):
        cfg(initial_ab=2 * C_REF)
    assert cfg(initial_ab=C_REF).initial_ab == C_REF


def test_p1_step_matches_bart_configuration():
    # a P=1 measurement is one scalar update: identical through either path
    config = cfg(lam=1e-3)
    state = initial_state(config)
    meas = make_meas([0.3], [9e6], [0.02])
    via_seq, _ = process_sequence(state, meas, config, 5e6)
    manual = update_sequential(predict(state), meas, config.gate_threshold)
    assert rel_diff(via_seq.x, manual.x) < 1e-15
    assert rel_diff(via_seq.psi, manual.psi) < 1e-15
