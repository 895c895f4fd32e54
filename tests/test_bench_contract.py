"""The benchmark's traced run reaches into the package by name.

perfbench/tracer.py rebinds the functions listed in its PROBES and reads
some of their arguments by position.  These checks fail when a refactor
renames a probed function or moves an argument a hook reads, instead of
letting the traced run break silently.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _probed(module, function):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    return getattr(owner, function)


@pytest.mark.parametrize("probe", tracer.PROBES,
                         ids=lambda p: f"{p.module}.{p.function}")
def test_probe_resolves_to_a_callable(probe):
    assert callable(_probed(probe.module, probe.function))


@pytest.mark.parametrize("module, function, position, name", [
    ("optimize", "minimize_cg", 0, "fun_and_grad"),
    ("map_infer", "posterior_logp_and_grad", 1, "obs"),
    ("map_infer", "posterior_logp_and_grad", 4, "want_grad"),
    ("gibecca", "mh_accept_elements", 1, "theta_old"),
    ("chains", "save_chain", 1, "dirpath"),
])
def test_hooked_argument_positions(module, function, position, name):
    params = list(inspect.signature(_probed(module, function)).parameters)
    assert params[position] == name


def test_probed_recipe_runners_are_in_the_recipe_table():
    recipes = importlib.import_module(f"{tracer.PACKAGE}.experiments").RECIPES
    runners = {entry[1] for entry in recipes.values()}
    for probe in tracer.PROBES:
        if probe.module == "experiments":
            assert _probed(probe.module, probe.function) in runners
