"""Each node of a node-first stack keeps the bits of its one-node run.

Every literal einsum spec in the package's source is read from the files,
so a spec added later is tested too, together with the specs that
``chart.interior`` and ``chart.lie_derivative`` build for ranks 1 to 3 and
``chart.frame_contract`` builds for ranks 1 to 4.
Each runs through ``chart.node_einsum`` on random node stacks, every index
size drawn from 1..5, and node k of the stacked result must equal the run
on node k alone, bit for bit.  The ``...`` specs the package hands to
``np.einsum`` directly must do the same with the ellipsis first (index
sizes 2..5), and none may put it last; the ``...`` specs moved to
``node_einsum`` must do the same on that route (index sizes 1..5).
"""

import pathlib
import re

import numpy as np
import pytest

from ggred import chart as ch

SRC = pathlib.Path(ch.__file__).parent
TEXT = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))


def _literal_specs():
    return sorted(set(re.findall(r'"([a-z]+(?:,[a-z]+)*->[a-z]*)"', TEXT)))


def _ellipsis_specs():
    sub = r"(?:\.\.\.)?[a-z]*(?:\.\.\.)?"
    return sorted({s for s in re.findall(rf'"({sub}(?:,{sub})*->{sub})"', TEXT)
                   if "..." in s})


def _built_specs():
    specs = []
    for rank in (1, 2, 3):
        idx = "abc"[:rank]
        specs += [f"m{idx[:rank - 1]},m->{idx[:rank - 1]}",     # interior
                  f"m,m{idx}->{idx}"]                            # L_V T
        specs += [f"{idx[:s]}m{idx[s + 1:]},{i}m->{idx}"
                  for s, i in enumerate(idx)]
    for rank in (1, 2, 3, 4):                                   # frame_contract
        rest = "jklm"[:rank - 1]
        specs.append(f"i{rest},ai->{rest}a")
    return specs


SPECS = sorted(set(_literal_specs() + _built_specs()))
ELLIPSIS_SPECS = _ellipsis_specs()
# ``...`` specs the package once handed to np.einsum and now runs through
# node_einsum without the ellipsis (genmetric.courant_bracket and
# genmetric.bismut_derivative): with an index of size 1 the ellipsis form
# can give node k other bits than its one-node run
MOVED_SPECS = ["...i,...j,...ijk->...k", "...ijk,...j,...k->...i"]


def _stacks(spec, rng, low, nodes):
    """Random node-first operands of ``spec``, each index of a size drawn
    from low..5."""
    subs = spec.replace("...", "").split("->")[0].split(",")
    letters = sorted(set("".join(subs)))
    size = dict(zip(letters, rng.integers(low, 6, len(letters)).tolist()))
    return [rng.normal(size=(nodes,) + tuple(size[i] for i in sub))
            for sub in subs]


def test_the_source_scan_finds_the_staged_pairing():
    assert {"i,ij->j", "j,j->", "ai,ij,bj->ab"} <= set(_literal_specs())


def test_the_source_scan_finds_the_ellipsis_specs():
    assert len(ELLIPSIS_SPECS) >= 30
    assert {"...i,...i->...", "...km,...mlij->...ijkl"} <= set(ELLIPSIS_SPECS)


def test_no_spec_in_the_package_puts_the_ellipsis_last():
    late = [s for s in ELLIPSIS_SPECS
            if any(not sub.startswith("...")
                   for sub in re.split(",|->", s) if sub)]
    assert late == []


@pytest.mark.parametrize("spec", SPECS)
def test_every_node_keeps_the_bits_of_its_one_node_run(spec):
    rng = np.random.default_rng(sum(map(ord, spec)))
    for draw in range(8):
        for nodes in (2, 3, 64):
            ops = _stacks(spec, rng, 1, nodes)
            full = ch.node_einsum(spec, *ops)
            for k in range(nodes):
                one = ch.node_einsum(spec, *(o[k:k + 1] for o in ops))
                assert np.array_equal(full[k], one[0]), \
                    ([o.shape for o in ops], k)


@pytest.mark.parametrize("spec, sizes", [
    ("ki,ri,sk->rs", "i2k2r1s1"), ("kj,rk,sj->rs", "j2k2r1s1"),
    ("ai,ab,bj,j->i", "a1b2i1j2"), ("ai,ij,bj->ab", "a1b1i2j2"),
    ("ijk,j,k->i", "i1j2k2"), ("ikj,k,j->i", "i1j2k2"),
    ("ab,bmn,al,li->mni", "a1b2i1l2m1n1"), ("ijk,i,j,k->", "i1j2k2"),
    ("i,j,ijk->k", "i2j2k1"), ("ijk,j,k->i", "i1j2k3")])
def test_a_result_of_one_entry_per_node_keeps_its_bits(spec, sizes):
    # each node's result is one entry, and some index has size 1; the
    # package must not hand such a spec to np.einsum in its ellipsis form,
    # which can give node k other bits than its one-node run
    subs, out = spec.split("->")
    assert ",".join("..." + sub for sub in subs.split(",")) + "->..." + out \
        not in ELLIPSIS_SPECS
    size = dict(zip(sizes[::2], map(int, sizes[1::2])))
    rng = np.random.default_rng(5)
    for nodes in (2, 3, 64):
        ops = [rng.normal(size=(nodes,) + tuple(size[i] for i in sub))
               for sub in spec.split("->")[0].split(",")]
        full = ch.node_einsum(spec, *ops)
        for k in range(nodes):
            one = ch.node_einsum(spec, *(o[k:k + 1] for o in ops))
            assert np.array_equal(full[k], one[0]), (nodes, k)


@pytest.mark.parametrize("spec", ELLIPSIS_SPECS + MOVED_SPECS)
def test_every_node_of_an_ellipsis_spec_keeps_its_bits(spec):
    # a moved spec runs the package's route for it, node_einsum, on index
    # sizes from 1, where the ellipsis form can fail
    if spec in MOVED_SPECS:
        low, run = 1, lambda *ops: ch.node_einsum(spec.replace("...", ""),
                                                   *ops)
    else:
        low, run = 2, lambda *ops: np.einsum(spec, *ops)
    rng = np.random.default_rng(sum(map(ord, spec)))
    for draw in range(4):
        for nodes in (2, 3, 64):
            ops = _stacks(spec, rng, low, nodes)
            full = run(*ops)
            for k in range(nodes):
                one = run(*(o[k:k + 1] for o in ops))
                assert np.array_equal(full[k], one[0]), \
                    ([o.shape for o in ops], k)


def test_operands_without_a_node_axis_raise():
    # the result would carry no node axis
    with pytest.raises(ValueError, match="no operand has a node axis"):
        ch.node_einsum("ij,jk->ik", np.eye(2), np.eye(2))
