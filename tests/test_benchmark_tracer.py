"""The benchmark's ``--trace 1`` run patches cpmr names where they are looked
up; entering and leaving its patch context guards every one of them."""

import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


@pytest.fixture()
def tracer():
    sys.path.insert(0, BENCHMARKS)
    try:
        import tracer
        yield tracer
    finally:
        sys.path.remove(BENCHMARKS)


def test_tracer_patches_and_restores_every_name(tracer):
    tr = tracer.Tracer()
    names = [(owner, name) for owner, name, _ in tracer._targets(tr)]
    before = {(owner, name): owner.__dict__[name] for owner, name in names}
    with tracer.patched(tr):
        assert all(owner.__dict__[name] is not before[owner, name] for owner, name in names)
    assert all(owner.__dict__[name] is before[owner, name] for owner, name in names)
