import math

import pytest
from hypothesis import settings

import nonrecip as nr
from nonrecip import cmt

# every property test draws the same examples on each run and keeps none between runs;
# each sets its own max_examples
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

KAPPA_A = 44e6
KAPPA_B = 19e6
KAPPA_C = 50e6


def standard_modes():
    return (
        nr.ModeSpec("a", 9.167e9, KAPPA_A),
        nr.ModeSpec("b", 5.241e9, KAPPA_B),
        nr.ModeSpec("c", 7.174e9, KAPPA_C),
    )


def db(s, out_mode, in_mode):
    """|S_out,in| of a one-point sweep (``scattering_at``) in dB, 20 log10."""
    return 20.0 * math.log10(s.magnitudes(out_mode, in_mode)[0])


def count_calls(monkeypatch, name, *modules):
    """Wrap the function ``name`` bound on each of ``modules``; the returned
    list gets each call's return value, in call order."""
    returned = []
    for module in modules:
        def counting(*args, _real=getattr(module, name), **kwargs):
            out = _real(*args, **kwargs)
            returned.append(out)
            return out

        monkeypatch.setattr(module, name, counting)
    return returned


def make_circulator(c_ab=0.97, c_bc=0.98, c_ac=0.99, phi_tot=math.pi / 2):
    """All-conversion device at the standard working point."""
    device = nr.validate_device(
        standard_modes(),
        (
            nr.PumpedCoupling(("a", "b"), "conversion", cmt.rho_for_conversion(c_ab)),
            nr.PumpedCoupling(("b", "c"), "conversion", cmt.rho_for_conversion(c_bc)),
            nr.PumpedCoupling(("a", "c"), "conversion", cmt.rho_for_conversion(c_ac)),
        ),
    )
    return nr.with_total_phase(device, phi_tot)


def make_diramp(c_ab=0.998, g_ac_db=13.0, g_bc_db=12.0, phi_tot=-math.pi / 2):
    """Two gains plus one conversion at the standard working point."""
    device = nr.validate_device(
        standard_modes(),
        (
            nr.PumpedCoupling(("a", "b"), "conversion", cmt.rho_for_conversion(c_ab)),
            nr.PumpedCoupling(("a", "c"), "gain", cmt.rho_for_gain(10 ** (g_ac_db / 10))),
            nr.PumpedCoupling(("b", "c"), "gain", cmt.rho_for_gain(10 ** (g_bc_db / 10))),
        ),
    )
    return nr.with_total_phase(device, phi_tot)


def make_single(kind, pair, rho, phase=0.0):
    """Three modes with a single pumped pair (two-mode sub-device)."""
    return nr.validate_device(standard_modes(), (nr.PumpedCoupling(pair, kind, rho, phase),))


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """Fail a test that used ``tmp_path`` if a ``.tmp_*`` file (``cli._atomic_write``'s
    temporary file) is left anywhere under it."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is not None:
        assert sorted(tmp.rglob(".tmp_*")) == []


@pytest.fixture
def circulator():
    return make_circulator()


@pytest.fixture
def diramp():
    return make_diramp()


@pytest.fixture
def bare_device():
    return nr.validate_device(standard_modes())
