"""Mutated instance documents and experiment configs run through `main()`.

Every run must end in an answer or in one error line: `solve` exits 0 or 2,
`experiment` 0, 1 or 2, and stderr never holds more than one line or a
traceback.  A value swapped for another JSON type, a non-finite number and
(in an instance document) a missing key must exit 2 naming the key.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mmwassoc.cli import main
from mmwassoc.instance import example1_instance, instance_to_json

INSTANCE = instance_to_json(example1_instance(3, 0.5))
CONFIG = {
    "n_aps": 2,
    "n_clients": 6,
    "slots": 1,
    "daa_iters": 5,
    "step_scale": 1.0,
    "seed": 3,
    "target_snr_db": 10.0,
    "ap_spacing_factor": 1.1,
    "demand_max_bps": 4e8,
    "wavelength_m": 5e-3,
    "noise_dbm_per_mhz": -134.0,
    "interference_dbm_per_mhz": -160.0,
    "bandwidth_hz": 1.2e9,
    "ref_distance_m": 1.0,
    "path_loss_exp": 2.0,
    "tx_power_mw": 0.1,
    "tx_gain": 1.0,
    "rx_gain": 1.0,
    "with_exact": True,
    "force_exact": False,
    "exact_limit": 1e6,
}
OTHER_TYPES = [None, True, "1", [1], {"k": 1}]
NON_FINITE = [math.nan, math.inf, -math.inf]
HUGE_COUNTS = [1e20, 10**30, 1 << 62]  # the AP ceiling rejects these before allocating
NON_OBJECTS = [None, 0, "doc", [], [1, 2]]


def json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def key_name(path) -> str:
    """How the parsers name the value at `path`, e.g. links[0].beta."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


def value_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


@st.composite
def mutations(draw, base, huge):
    """(document, kind, path): one mutation of `base` at one value."""
    doc = copy.deepcopy(base)
    kinds = ["type", "non-finite", "negative", "missing", "extra"] + ["huge"] * huge
    kind = draw(st.sampled_from(kinds))
    path = draw(st.sampled_from(list(value_paths(doc))))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    old = target[last]
    if kind == "type":
        swaps = [value for value in OTHER_TYPES if json_type(value) != json_type(old)]
        target[last] = draw(st.sampled_from(swaps))
    elif kind == "non-finite":
        target[last] = draw(st.sampled_from(NON_FINITE))
    elif kind == "negative":
        target[last] = -old if json_type(old) == "number" and old else -1
    elif kind == "huge":
        target[last] = draw(st.sampled_from(HUGE_COUNTS))
    elif kind == "missing" and isinstance(target, dict):
        del target[last]
    else:
        kind = "extra"
        container = target if isinstance(target, dict) else doc
        container["unexpected_key"] = draw(st.sampled_from(OTHER_TYPES + [1.5]))
    return doc, kind, path


def documents(base, huge=False):
    roots = st.tuples(st.sampled_from(NON_OBJECTS), st.just("root"), st.just(()))
    return st.one_of(mutations(base, huge), roots)


def run_main(argv_for, doc):
    """main(argv_for(path, out)) on `doc` written to a file: (exit code, stderr).

    Warnings count as stderr lines: outside pytest they print there."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv_for(str(path), str(Path(tmp) / "out")))
                except SystemExit as exc:
                    code = exc.code
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert not any("Traceback" in line for line in lines)
    assert len(lines) <= 1, lines
    return code, "\n".join(lines)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(documents(INSTANCE, huge=True))
def test_solve_survives_mutated_instance_documents(case):
    doc, kind, path = case

    def argv(doc_path, out):
        return ["solve", doc_path, "--iters", "5", "--out", out]

    code, err = run_main(argv, doc)
    assert code in (0, 2)
    if kind in ("type", "non-finite", "missing", "root"):
        assert code == 2
        assert (repr(path[-1]) if kind == "missing" else key_name(path)) in err
    if kind == "root":
        assert "JSON object" in err


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents(CONFIG))
def test_experiment_survives_mutated_configs(case):
    doc, kind, path = case

    def argv(doc_path, out):
        return ["experiment", "--config", doc_path, "--jobs", "1", "--out", out]

    code, err = run_main(argv, doc)
    assert code in (0, 1, 2)
    no_limit = path == ("exact_limit",) and doc.get("exact_limit") == math.inf
    if kind == "type" or (kind == "non-finite" and not no_limit):
        assert code == 2 and key_name(path) in err
    if kind == "root":
        assert code == 2 and "JSON object" in err
