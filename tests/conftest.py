import random
import sys

import pytest
from hypothesis import HealthCheck, settings
from szdet import gfuncs, zetas
from szdet.orbifold import modular_orbifold
from szdet.regdet import SurfaceContext
from szdet.verify import random_orbifold
from szdet.zetas import GenericScattering, ModularGeodesicSource, ModularScattering

settings.register_profile(
    "suite",
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

PREC = 256


@pytest.fixture(scope="session")
def modular_ctx():
    return SurfaceContext(
        modular_orbifold(),
        ModularGeodesicSource(),
        ModularScattering(),
        prec=PREC,
        cutoff_norm=2000,
    )


@pytest.fixture(scope="session")
def orbifold_pool():
    """Deterministic random orbifold/representation configurations."""
    rng = random.Random(432100)
    return [random_orbifold(rng) for _ in range(60)]


def rebind(monkeypatch, original, replacement):
    """Replace every binding of ``original`` in the loaded szdet modules."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "szdet" or name.startswith("szdet.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture()
def call_counts(monkeypatch):
    """Counts of log_g1 and scattering phi calls made by the library.

    Every binding of log_g1 in a loaded szdet module and the phi method of
    each scattering model is replaced by a counting wrapper.
    """
    counts = {"log_g1": 0, "phi": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    rebind(monkeypatch, gfuncs.log_g1, counted("log_g1", gfuncs.log_g1))
    for cls in (ModularScattering, GenericScattering):
        monkeypatch.setattr(cls, "phi", counted("phi", cls.phi))
    return counts


@pytest.fixture()
def norm_calls(monkeypatch):
    """Traces passed to norm_of_trace through any binding in the library."""
    calls = []
    original = zetas.norm_of_trace

    def wrapper(t, *args, **kwargs):
        calls.append(t)
        return original(t, *args, **kwargs)

    rebind(monkeypatch, original, wrapper)
    return calls

