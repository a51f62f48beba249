import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsystems.cli import main
from qsystems.io import load_algebra, load_category, read_matrix, save_algebra, save_category, write_matrix
from qsystems.morphisms import deligne_product, distance, mirror


def run(argv):
    return main([str(a) for a in argv])


def test_verify_category_ok(data_dir, capsys):
    for name in ["trivial", "fibonacci", "ising", "su2k4", "z2boson", "semion", "z4", "rep_a4"]:
        assert run(["verify-category", data_dir / f"{name}.cat"]) == 0
    out = capsys.readouterr().out
    assert "pass: True" in out


def test_verify_category_corrupted_f_entry(data_dir, tmp_path, capsys):
    doc = json.loads((data_dir / "fibonacci.cat").read_text())
    for entry in doc["F"]:
        if entry[:4] == [1, 1, 1, 1] and entry[4] == [0, 0, 0] and entry[5] == [0, 0, 0]:
            entry[6] = [0.9, 0.0]  # corrupt one recoupling coefficient
    bad = tmp_path / "bad.cat"
    bad.write_text(json.dumps(doc))
    assert run(["verify-category", bad]) == 1
    out = capsys.readouterr().out
    assert "pentagon" in out and "FAIL" in out


def test_verify_category_corrupted_r_entry(data_dir, tmp_path, capsys):
    doc = json.loads((data_dir / "fibonacci.cat").read_text())
    for entry in doc["R"]:
        if entry[:3] == [1, 1, 0]:
            entry[5] = [1.0, 0.0]  # a unit-modulus phase: R stays unitary, the hexagon breaks
    bad = tmp_path / "bad.cat"
    bad.write_text(json.dumps(doc))
    assert run(["verify-category", bad]) == 1
    flags = {w[0]: w[-1] for w in map(str.split, capsys.readouterr().out.splitlines()) if len(w) == 3}
    assert flags["hexagon"] == "FAIL" and flags["r_unitarity"] == "ok"


def test_verify_category_truncated_file(data_dir, tmp_path):
    trunc = tmp_path / "trunc.cat"
    trunc.write_text((data_dir / "fibonacci.cat").read_text()[:50])
    assert run(["verify-category", trunc]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["F", "R", "qdim"])
def test_verify_category_non_finite_number(data_dir, tmp_path, capsys, field, bad):
    # a NaN used to vanish inside max() and pass; inf and a NaN qdim raised
    doc = json.loads((data_dir / "su2k4.cat").read_text())
    if field == "F":
        next(e for e in doc["F"] if e[:4] == [1, 1, 2, 0])[6] = [bad, 0.0]
    elif field == "R":
        doc["R"][0][5] = [bad, 0.0]
    else:
        doc["qdim"][1] = bad
    path = tmp_path / "bad.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err


def test_verify_category_non_associative_fusion(data_dir, tmp_path, capsys):
    # s x p = 2 s leaves Hom(s, s s s) with more trees on one side than the other
    doc = json.loads((data_dir / "ising.cat").read_text())
    next(e for e in doc["N"] if e[:3] == [1, 2, 1])[3] = 2
    path = tmp_path / "bad.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    assert "fusion data not associative" in capsys.readouterr().err


@pytest.mark.parametrize("dual", [7, -1])
def test_verify_category_dual_out_of_range(data_dir, tmp_path, capsys, dual):
    # an out-of-range dual used to raise IndexError after the bijection check
    doc = json.loads((data_dir / "su2k4.cat").read_text())
    doc["dual"][1] = dual
    path = tmp_path / "bad.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _set_first(entries, head, index, value):
    next(e for e in entries if e[:len(head)] == head)[index] = value


@pytest.mark.parametrize("edit", [
    lambda doc: doc["N"].append([-1, -1, 0, 1]),                 # numpy wraps -1 to the last label
    lambda doc: _set_first(doc["N"], [1, 1, 0], 3, 1.5),         # an int array truncates it to 1
    lambda doc: doc["F"].append([9, 9, 9, 9, [0, 0, 0], [0, 0, 0], [1, 0]]),  # never looked up
    lambda doc: doc["R"].append([9, 9, 9, 0, 0, [1, 0]]),        # never looked up
    lambda doc: _set_first(doc["R"], [1, 1, 0], 3, -1),          # f >= rows misses it; it wraps
    lambda doc: doc["R"].append([1, 1, 1, 0, 0, [1, 0]]),        # N[1, 1, 1] = 0: never looked up
    # Hom(0, 1 1 1) = 0: no trees, never looked up
    lambda doc: doc["F"].append([1, 1, 1, 0, [0, 0, 0], [0, 0, 0], [1, 0]]),
    # a left tree through the forbidden channel 1 x 1 -> 1
    lambda doc: doc["F"].append([1, 1, 1, 1, [1, 0, 0], [0, 0, 0], [1, 0]]),
    # fusion compatible, but the unital gauge fixes F and R at an identity label
    lambda doc: doc["F"].append([0, 1, 1, 0, [1, 0, 0], [0, 0, 0], [-1, 0]]),
    lambda doc: doc["R"].append([0, 1, 1, 0, 0, [-1, 0]]),
], ids=["N-label", "N-value", "F-label", "R-label", "R-multiplicity", "R-forbidden",
        "F-no-trees", "F-tree", "F-identity", "R-identity"])
def test_verify_category_bad_index(data_dir, tmp_path, capsys, edit):
    doc = json.loads((data_dir / "su2k4.cat").read_text())
    edit(doc)
    path = tmp_path / "bad.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("edit", [
    lambda doc: doc["N"].append(list(doc["N"][0])),              # the same multiplicity again
    lambda doc: doc["F"].append(doc["F"][0][:6] + [[0.5, 0.0]]),  # a second value for an entry
    lambda doc: doc["F"].append(list(doc["F"][0])),              # an exact repeat
    lambda doc: doc["R"].append(doc["R"][0][:5] + [[1.0, 0.0]]),
], ids=["N", "F-new-value", "F-repeat", "R"])
def test_verify_category_duplicate_entry(data_dir, tmp_path, capsys, edit):
    # the last of two entries for one place used to win, silently
    doc = json.loads((data_dir / "su2k4.cat").read_text())
    edit(doc)
    path = tmp_path / "dup.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate" in err


def test_verify_category_multiplicity_too_large_for_an_integer(data_dir, tmp_path, capsys):
    # N[0, 0, 0] = 2^70 overflowed the int64 fusion tensor with a traceback
    doc = json.loads((data_dir / "ising.cat").read_text())
    doc["N"][0][3] = 2 ** 70
    path = tmp_path / "big.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    assert capsys.readouterr().err.startswith("error: malformed category bundle")


def test_verify_category_without_fusion_rules(data_dir, tmp_path, capsys):
    # with no N entry no Hom(d, abc) has a tree, and the F table build took the
    # max of an empty array with a traceback; the fusion axioms fail instead
    doc = json.loads((data_dir / "trivial.cat").read_text())
    doc["N"] = []
    path = tmp_path / "empty.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 1
    assert "fusion violation [identity-right]" in capsys.readouterr().out


# every bundle, with the category of an algebra file: a category file goes
# through verify-category, an algebra file through build-ctps over its category
MUTATED_BUNDLES = [(f"{name}.cat", None)
                   for name in ["trivial", "fibonacci", "ising", "su2k4", "z2boson", "semion", "z4", "rep_a4"]]
MUTATED_BUNDLES += [("z2.alg", "su2k4"), ("fibtau.alg", "fibonacci"), ("isingpsi.alg", "ising"),
                    ("z4fermion.alg", "z4")]


def _nodes(x, path=()):
    """(path, value) of every value in a parsed bundle, containers included."""
    yield path, x
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _is_label(path) -> bool:
    """Whether a path holds a label: a sector of N, R, F (its trees' too) or
    dual, or a summand of an algebra coefficient."""
    if not path or path[0] not in ("N", "R", "F", "coefficients", "dual"):
        return False
    if path[0] == "dual":
        return len(path) == 2
    if path[0] == "F":
        return (len(path) == 3 and path[2] < 4) or (len(path) == 4 and path[2] in (4, 5) and path[3] == 0)
    return len(path) == 3 and path[2] < 3


def _is_count(path) -> bool:
    """Whether a path holds a count that sets an allocation: an N value or a multiplicity."""
    return bool(path) and (path[0] == "multiplicity" or (path[0] == "N" and len(path) == 3 and path[2] == 3))


@settings(max_examples=150, deadline=None)
@given(bundle=st.sampled_from(MUTATED_BUNDLES),
       kind=st.sampled_from(["drop", "duplicate", "label", "index", "huge", "non-number", "truncate"]),
       data=st.data())
def test_mutated_bundles_exit_cleanly(data_dir, bundle, kind, data):
    # a bundle with an entry dropped or repeated, a label out of range or
    # written as a float or a bool, a huge multiplicity or N value, a number
    # replaced by something else, or its text cut short: the command ends
    # with an exit code (0 only where every check still passes), never with a
    # traceback, and a huge count is refused before it is allocated
    name, category = bundle
    text = (data_dir / name).read_text()
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        doc = json.loads(text)
        nodes = list(_nodes(doc))
        if kind in ("drop", "duplicate"):
            path = data.draw(st.sampled_from([p for p, v in nodes if isinstance(v, list) and v]))
            entries = doc
            for key in path:
                entries = entries[key]
            i = data.draw(st.integers(0, len(entries) - 1))
            if kind == "drop":
                del entries[i]
            else:
                entries.insert(i, json.loads(json.dumps(entries[i])))
        else:
            numbers = [p for p, v in nodes if isinstance(v, (int, float)) and not isinstance(v, bool)]
            if kind == "label":
                path, value = data.draw(st.sampled_from([p for p in numbers if _is_label(p)])), \
                    data.draw(st.sampled_from([-1, 64, 2 ** 70]))
            elif kind == "index":
                path = data.draw(st.sampled_from([p for p in numbers if _is_label(p)
                                                  or (p[0] == "coefficients" and p[2] == 3)]))
                value = data.draw(st.sampled_from([float(dict(nodes)[path]), True, False]))
            elif kind == "huge":
                path, value = data.draw(st.sampled_from([p for p in numbers if _is_count(p)])), \
                    data.draw(st.sampled_from([10 ** 6, 2 ** 40, 2 ** 70]))
            else:
                path, value = data.draw(st.sampled_from(numbers)), data.draw(st.sampled_from(["x", None, [], {}]))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        if category is None:
            argv = ["verify-category", path]
        else:
            argv = ["build-ctps", data_dir / f"{category}.cat", "--alg", path]
        assert run(argv) in ((2,) if kind == "huge" else (0, 1, 2))


def test_missing_file_is_io_error(tmp_path):
    assert run(["verify-category", tmp_path / "nope.cat"]) == 2


def test_lr_qsystem_command(data_dir, tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert run(["lr-qsystem", data_dir / "fibonacci.cat", "--report", rep]) == 0
    out = capsys.readouterr().out
    assert "3.6180339887" in out
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    assert doc["d_theta"] == pytest.approx(3.6180339887, abs=1e-9)
    assert run(["lr-qsystem", data_dir / "ising.cat"]) == 0
    assert run(["lr-qsystem", data_dir / "trivial.cat"]) == 0


def test_build_ctps_d4(data_dir, tmp_path, capsys):
    rep = tmp_path / "d4.json"
    code = run(["build-ctps", data_dir / "su2k4.cat", "--alg", data_dir / "z2.alg",
                "--report", rep])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["pass"] is True
    assert doc["d_theta"] == pytest.approx(12.0, abs=1e-8)
    assert doc["z_matrix"] == [[1, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 2, 0, 0],
                               [0, 0, 0, 0, 0], [1, 0, 0, 0, 1]]
    assert doc["normality"]["n2"] is False
    out = capsys.readouterr().out
    assert "pass: True" in out


def test_build_ctps_flags_each_residual_at_its_limit(data_dir, capsys):
    # chiral locality and commutativity are judged at 10 * tol, the rest at tol
    tol = 1e-17
    code = run(["build-ctps", data_dir / "su2k4.cat", "--tol", tol])
    rows = [w for w in map(str.split, capsys.readouterr().out.splitlines())
            if len(w) == 3 and w[2] in ("ok", "FAIL")]
    assert rows
    for name, value, flag in rows:
        limit = 10 * tol if name in ("chiral_locality", "commutativity") else tol
        assert flag == ("ok" if float(value) < limit else "FAIL"), name
    assert code == (0 if all(flag == "ok" for *_, flag in rows) else 1)


def test_build_ctps_trivial_extensions(data_dir, tmp_path):
    rep = tmp_path / "lr.json"
    assert run(["build-ctps", data_dir / "fibonacci.cat", "--report", rep]) == 0
    doc = json.loads(rep.read_text())
    assert doc["z_matrix"] == [[1, 0], [0, 1]]
    assert doc["normality"]["n3"] is True and doc["normality"]["pi"] == [0, 1]


def test_build_ctps_plus_plus_reported_honestly(data_dir, tmp_path, capsys):
    rep = tmp_path / "pp.json"
    code = run(["build-ctps", data_dir / "su2k4.cat", "--alg", data_dir / "z2.alg",
                "--ext1", "plus", "--ext2", "plus", "--report", rep])
    assert code == 1
    doc = json.loads(rep.read_text())
    assert doc["pass"] is False
    assert doc["residuals"]["chiral_locality"] > 0.1
    assert doc["residuals"]["commutativity"] is None
    assert any("commutativity" in s for s in doc["skipped"])


def test_check_invariant_command(data_dir, tmp_path):
    assert run(["check-invariant", data_dir / "su2k4.cat",
                "--matrix", data_dir / "d4_su2k4.mat"]) == 0
    ident = tmp_path / "id.mat"
    write_matrix(np.eye(2, dtype=int), ident)
    assert run(["check-invariant", data_dir / "fibonacci.cat", "--matrix", ident]) == 0
    bad = tmp_path / "bad.mat"
    write_matrix(np.array([[1, 1], [0, 1]]), bad)
    assert run(["check-invariant", data_dir / "fibonacci.cat", "--matrix", bad]) == 1
    wrong_shape = tmp_path / "ws.mat"
    write_matrix(np.eye(3, dtype=int), wrong_shape)
    assert run(["check-invariant", data_dir / "fibonacci.cat", "--matrix", wrong_shape]) == 2


def test_check_invariant_degenerate_skips(data_dir, tmp_path, capsys):
    ident = tmp_path / "id.mat"
    write_matrix(np.eye(2, dtype=int), ident)
    assert run(["check-invariant", data_dir / "z2boson.cat", "--matrix", ident]) == 0
    err = capsys.readouterr().err
    assert "degenerate" in err


def test_enumerate_invariants_command(data_dir, tmp_path):
    rep = tmp_path / "enum.json"
    assert run(["enumerate-invariants", data_dir / "su2k4.cat", "--bound", "3",
                "--report", rep]) == 0
    doc = json.loads(rep.read_text())
    d4 = [[1, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 2, 0, 0],
          [0, 0, 0, 0, 0], [1, 0, 0, 0, 1]]
    assert d4 in doc["invariants"]
    assert doc["count"] == len(doc["invariants"])


def test_enumerate_invariants_reads_tol(data_dir, tmp_path):
    # the identity commutes with S exactly; D4's commutator is rounding-sized
    rep = tmp_path / "enum.json"
    assert run(["enumerate-invariants", data_dir / "su2k4.cat", "--bound", "2",
                "--tol", "1e-30", "--report", rep]) == 0
    doc = json.loads(rep.read_text())
    assert doc["tolerance"] == 1e-30
    assert doc["invariants"] == [np.eye(5, dtype=int).tolist()]


def test_enumerate_invariants_refusal_exits_2(data_dir, capsys):
    # more pivot settings than the limit; a tolerance too loose to single out integers
    for argv in [["--bound", 2_000_000], ["--tol", 1]]:
        assert run(["enumerate-invariants", data_dir / "su2k4.cat", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "x"])
def test_tol_must_be_finite_and_positive(data_dir, tol, capsys):
    # nan fails every comparison, inf passes everything, and <= 0 fails all
    cat = data_dir / "su2k4.cat"
    commands = [["verify-category", cat], ["lr-qsystem", cat],
                ["build-ctps", cat, "--alg", data_dir / "z2.alg"],
                ["check-invariant", cat, "--matrix", data_dir / "d4_su2k4.mat"],
                ["enumerate-invariants", cat, "--bound", 2]]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            run([*argv, f"--tol={tol}"])
        assert exc.value.code == 2, argv
        assert "--tol" in capsys.readouterr().err


def test_bundle_round_trip(data_dir, tmp_path):
    for name in ["fibonacci", "ising", "su2k4", "z4", "semion", "z2boson", "trivial", "rep_a4"]:
        src = data_dir / f"{name}.cat"
        model = load_category(src)
        dst = tmp_path / f"{name}.cat"
        save_category(model, dst, provenance=json.loads(src.read_text())["provenance"])
        assert json.loads(src.read_text()) == json.loads(dst.read_text()), name
        model2 = load_category(dst)
        assert np.array_equal(model.N, model2.N)
        assert np.allclose(model.qdim, model2.qdim)


def test_algebra_round_trip(data_dir, tmp_path, models):
    for name, cat in [("z2", "su2k4"), ("fibtau", "fibonacci"), ("isingpsi", "ising"),
                      ("z4fermion", "z4")]:
        src = data_dir / f"{name}.alg"
        alg = load_algebra(src, models[cat])
        dst = tmp_path / f"{name}.alg"
        save_algebra(alg, dst, name=name, provenance=json.loads(src.read_text())["provenance"])
        assert json.loads(src.read_text()) == json.loads(dst.read_text()), name
        alg2 = load_algebra(dst, models[cat])
        assert distance(alg.mult, alg2.mult) == 0, name


def test_product_bundle_round_trip(models, tmp_path):
    # rep_a4 has a vertex of multiplicity two, so these products' tree order
    # is not the Kronecker order of their factors'.  Every block comes back
    # bitwise, except that -0.0 comes back as 0.0: zero entries are omitted
    bits = lambda B: (B + 0).tobytes()
    for D in (deligne_product(models["rep_a4"], models["semion"]),
              deligne_product(models["rep_a4"], mirror(models["rep_a4"]))):
        path = tmp_path / "product.cat"
        save_category(D, path)
        back = load_category(path)
        assert np.array_equal(back.N, D.N) and back.braided, D.name
        fl = D._f_table()
        for q in map(tuple, fl.keys.tolist()):
            assert bits(back.F(*q)) == bits(fl.view(q)), (D.name, q)
        for t in np.argwhere(D.N).tolist():
            assert bits(back.R(*t)) == bits(D.R(*t)), (D.name, t)


def _z2_variant(data_dir, tmp_path, **changes):
    doc = json.loads((data_dir / "z2.alg").read_text())
    doc.update(changes)
    bad = tmp_path / "bad.alg"
    bad.write_text(json.dumps(doc))
    return bad


def test_algebra_coefficient_outside_slots(data_dir, tmp_path, capsys):
    # e = 1 >= N[0, 0, 0]: no such tree vertex, so no such coefficient
    doc = json.loads((data_dir / "z2.alg").read_text())
    coeffs = [[0, 0, 0, 1, c[4]] if c[:4] == [1, 1, 0, 0] else c for c in doc["coefficients"]]
    bad = _z2_variant(data_dir, tmp_path, coefficients=coeffs)
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[0, 0, 0, 1]" in err and "not fusion compatible" in err


@pytest.mark.parametrize("index, message", [
    (1.0, "not an integer"),    # hashed like 1, passed the lookup, then an IndexError traceback
    (True, "not an integer"),   # numpy read it as a mask and misplaced the coefficient
    (-1, "not fusion compatible"),
    (2, "not fusion compatible"),
], ids=["float", "bool", "negative", "out-of-range"])
def test_algebra_coefficient_index_not_a_summand(data_dir, tmp_path, capsys, index, message):
    # the entry [1, 1, 0, 0] with its first summand index l replaced; z2 has two summands
    doc = json.loads((data_dir / "z2.alg").read_text())
    coeffs = [[index] + c[1:] if c[:4] == [1, 1, 0, 0] else c for c in doc["coefficients"]]
    path = _z2_variant(data_dir, tmp_path, coefficients=coeffs)
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("mult", [10 ** 6, 2 ** 70])
def test_algebra_huge_multiplicity_refused(data_dir, tmp_path, capsys, mult):
    # theta used to list every summand first: 10^6 of them exhausted memory
    path = _z2_variant(data_dir, tmp_path, multiplicity=[1, 0, 0, 0, mult])
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "coefficient cells" in err


@pytest.mark.parametrize("value", [10 ** 6, 2 ** 40])
def test_verify_category_huge_fusion_multiplicity_refused(data_dir, tmp_path, capsys, value):
    # Fibonacci with N[tau, tau, tau] = value is still associative.  Its F
    # table used to be built with an identity block of every size up to the
    # largest tree count, 10^12, and at 2^40 the int64 tree counts overflow
    doc = json.loads((data_dir / "fibonacci.cat").read_text())
    doc["N"] = [c[:3] + [value] if c[:3] == [1, 1, 1] else c for c in doc["N"]]
    path = tmp_path / "huge.cat"
    path.write_text(json.dumps(doc))
    assert run(["verify-category", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "F table" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_algebra_coefficient_non_finite(data_dir, tmp_path, capsys, bad):
    doc = json.loads((data_dir / "z2.alg").read_text())
    coeffs = [c[:4] + [[bad, 0.0]] if c[:4] == [1, 1, 0, 0] else c for c in doc["coefficients"]]
    path = _z2_variant(data_dir, tmp_path, coefficients=coeffs)
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err


def test_algebra_duplicate_coefficient(data_dir, tmp_path, capsys):
    # a second [1, 0, 1, 0] at 9.0 used to replace the first, at 1.0
    doc = json.loads((data_dir / "z2.alg").read_text())
    first = next(c for c in doc["coefficients"] if c[:4] == [1, 0, 1, 0])
    coeffs = doc["coefficients"] + [first[:4] + [[9.0, 0.0]]]
    path = _z2_variant(data_dir, tmp_path, coefficients=coeffs)
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duplicate" in err and "[1, 0, 1, 0]" in err


def test_algebra_without_unit_summand(data_dir, tmp_path, capsys):
    bad = _z2_variant(data_dir, tmp_path, multiplicity=[0, 0, 0, 0, 1], coefficients=[])
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", bad]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_algebra_multiplicity_not_a_nonnegative_integer(data_dir, tmp_path, capsys):
    doc = json.loads((data_dir / "z2.alg").read_text())
    unit_only = [c for c in doc["coefficients"] if c[:4] == [0, 0, 0, 0]]
    for mult in ([1, 0, 0, 0, -1], [1, 0, 0, 0, 1.5]):
        bad = _z2_variant(data_dir, tmp_path, multiplicity=mult, coefficients=unit_only)
        assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", bad]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_algebra_with_two_unit_summands_fails_relations(data_dir, tmp_path, capsys):
    bad = _z2_variant(data_dir, tmp_path, multiplicity=[2, 0, 0, 0, 1])
    assert run(["build-ctps", data_dir / "su2k4.cat", "--alg", bad]) == 1
    assert "algebra bundle fails the Q-system relations" in capsys.readouterr().out


def test_reports_deterministic(data_dir, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["build-ctps", data_dir / "su2k4.cat", "--alg", data_dir / "z2.alg", "--report", r1])
    run(["build-ctps", data_dir / "su2k4.cat", "--alg", data_dir / "z2.alg", "--report", r2])
    d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_matrix_io_round_trip(tmp_path):
    Z = np.array([[1, 0, 2], [0, 3, 0], [1, 1, 1]])
    p = tmp_path / "m.mat"
    write_matrix(Z, p)
    assert np.array_equal(read_matrix(p), Z)
