"""``chart.node_einsum`` gives each node the bits of its one-node run.

Every literal einsum spec in the package's source is read from the files,
so a spec added later is tested too, together with the specs that
``chart.interior`` and ``chart.lie_derivative`` build for ranks 1 to 3.
Each runs on random node stacks, every index of size n = 2..5, and node k
of the stacked result must equal the run on node k alone, bit for bit.
"""

import pathlib
import re

import numpy as np
import pytest

from ggred import chart as ch

SRC = pathlib.Path(ch.__file__).parent


def _literal_specs():
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    return sorted(set(re.findall(r'"([a-z]+(?:,[a-z]+)*->[a-z]*)"', text)))


def _built_specs():
    specs = []
    for rank in (1, 2, 3):
        idx = "abc"[:rank]
        specs += [f"m{idx[:rank - 1]},m->{idx[:rank - 1]}",     # interior
                  f"m,m{idx}->{idx}"]                            # L_V T
        specs += [f"{idx[:s]}m{idx[s + 1:]},{i}m->{idx}"
                  for s, i in enumerate(idx)]
    return specs


SPECS = sorted(set(_literal_specs() + _built_specs()))


def test_the_source_scan_finds_the_staged_pairing():
    assert {"i,ij->j", "j,j->", "ai,ij,bj->ab"} <= set(_literal_specs())


@pytest.mark.parametrize("spec", SPECS)
def test_every_node_keeps_the_bits_of_its_one_node_run(spec):
    subs = spec.split("->")[0].split(",")
    rng = np.random.default_rng(sum(map(ord, spec)))
    for n in (2, 3, 4, 5):
        for nodes in (2, 3, 64):
            ops = [rng.normal(size=(n,) * len(sub) + (nodes,)) for sub in subs]
            full = ch.node_einsum(spec, *ops)
            for k in range(nodes):
                one = ch.node_einsum(spec, *(o[..., k:k + 1] for o in ops))
                assert np.array_equal(full[..., k], one[..., 0]), (n, nodes, k)


def test_operands_without_a_node_axis_raise():
    # a plain einsum's (i, k) result would come back as (k, i)
    with pytest.raises(ValueError, match="no operand has a node axis"):
        ch.node_einsum("ij,jk->ik", np.eye(2), np.eye(2))
