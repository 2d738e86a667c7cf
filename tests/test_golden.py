"""Golden outputs: the solver"s trace, strategy and stats bytes are pinned.

A refactor of the solver or the kernel must leave every output byte the
same.  Each instance pins the SHA-256 of the emitted trace text, of the
extracted strategy text and of its rectangle lists (FALSE runs only), and
of the stats report without timing fields.  The digests do not depend on
``PYTHONHASHSEED``.
"""

import hashlib
import json
import random

import pytest

from qobdd.families import eqprime_decomposition, gen_eqprime, gen_ipg_qbf, gen_quparity
from qobdd.graphs import order_from_decomposition, random_dregular
from qobdd.obdd import VarOrder, serialize
from qobdd.pcnf import EXISTS, FORALL, Pcnf, clause
from qobdd.proof import emit_trace
from qobdd.solver import default_order, solve
from qobdd.strategy import emit_strategy, extract, to_rectangle_list

from .helpers import random_pcnf

REPEATED = Pcnf(
    ((FORALL, 1), (EXISTS, 2), (FORALL, 3), (EXISTS, 4)),
    tuple(
        clause(c)
        for c in ([1, 2], [-2, 4], [1, 2], [2, -4, 3], [-2, 4], [-1, -3, 4], [1, 2], [-4, -3])
    ),
)
WITH_EMPTY = Pcnf(((EXISTS, 1), (FORALL, 2)), (clause([1, 2]), (), clause([-1]), ()))


def _instances():
    yield "eqprime6-family", gen_eqprime(6), order_from_decomposition(eqprime_decomposition(6))
    yield "quparity6-default", gen_quparity(6), None
    # the breadth-first order the default picked before universal vertices
    # went first, pinned so that its outputs stay covered
    yield "quparity6-bfs", gen_quparity(6), VarOrder((1, 2, 7, 8, 9, 3, 4, 5, 6, 10, 11, 12, 13))
    yield "ipg10", gen_ipg_qbf(random_dregular(10, 3, seed=2)), None
    yield "repeated", REPEATED, None
    yield "empty", WITH_EMPTY, None
    rng = random.Random(7)
    for i in range(6):
        yield f"random{i}", random_pcnf(rng, 10, 18), None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rectangle_text(f, family):
    """The rectangle lists of the outermost and the innermost universal at
    the middle cut, as the benchmark builds them: each entry's r1 and r2
    blocks and its value, in entry order."""
    mgr = family.manager
    cut = len(mgr.order) // 2
    out = []
    for u in dict.fromkeys(f.universals[:1] + f.universals[-1:]):
        for r1, r2, value in to_rectangle_list(family.lists[u], cut).entries:
            out += [serialize(mgr, r1), serialize(mgr, r2), str(value)]
    return "\n".join(out)


def _digests(f, order):
    res = solve(f, order=order)
    strategy = rectangles = None
    if not res.value:
        family = extract(f, res.trace)
        strategy = _sha(emit_strategy(family))
        rectangles = _sha(_rectangle_text(f, family))
    stats = json.dumps(res.stats.as_dict(False), sort_keys=True)
    return res.value, _sha(emit_trace(res.trace)), strategy, _sha(stats), rectangles


GOLDEN = {  # name: (value, trace, strategy, stats, rectangles)
    "eqprime6-family": (
        False,
        "2d1e218e18cf3e0d192fa6059f9ffa756757db7eef451920ddf8f13e65047756",
        "1e4dadcdf0ce349aedf8b09e47b242d2b53a276cdab89d75c66a190eee707238",
        "76fe2972f4425cba38eab9c3064fdbf043899981127bde8d91b482d1c8311475",
        "c0d0184960f9b4776bbc07d1eefd1d1dd8fd4de2df3d1dc7685882299095c72e",
    ),
    "quparity6-default": (
        False,
        "54dba5c3184737a9f0b765b5f5a3d013ac57e92074f04735bb6e971317336452",
        "8ca4da93961cb4a52abd39407a8bc872d64043ecf8cf9dbba43bdf3bcecfb601",
        "bd580cba62b64c61d6a8ec70f44e76a9965e399c5e73cc0a259acd4803e98393",
        "f15b9c9b19c29e61a6777835636f98522ec52f4ad5bddb4baf575816d1362e2a",
    ),
    "quparity6-bfs": (
        False,
        "6ad34639b17260f40f136ece8facbc5a4500f993f95c0d26a232b256817c2af5",
        "fdb9bac6619771c74af464976e0df9dfd1d8730702432307b598e1c3009b67ac",
        "0665e12a5477ec9bd52de8c86a4de5fead2f7383799b7ccf802b312fa979fb01",
        "2b4bd066d3c416f9cce325a8185f663107aad94238555cfb090ff6cc897cca15",
    ),
    "ipg10": (
        False,
        "98ff2d20c962c9c4625616c36df1b1e42111a109a1ae22a9a82fa9c6c076483c",
        "3f3cb6157bdac0c3a583c2b1b7402b9069322b14c03e55a68e5d3b3474c1e915",
        "d8c6bf2df1272ce01a1d361a8b77d493e7e9096ffdf74b500bae50e087e033a4",
        "93a9c641aeef0852eaa9a63903ae8160b92e1d69cc48a3bf098fece1dea19a7e",
    ),
    "repeated": (
        False,
        "acbca1eba2d6107d915c15a838aecf8d276efa8d122332858fd63c33355fb9a5",
        "e3f38cf8662235d2818e1d27c6f0a4003054742c230dabb503cefe54a4bfcf7a",
        "302ac3a31056e99702e367c2f120c3363bb5802f0f3c7bcf6b325f80aef4de4a",
        "e2a1783d50c966cec4383f781227f0f332fb32991cf162c7d72f971363704858",
    ),
    "empty": (
        False,
        "6c65cbe06c7f78748742657ae49410c0350452c5c0b4b6e41488dc4a2efa253c",
        "0897feaa725087e3f230c598bdf0f3dda4c4019d9ee4bd8fee37662e71520284",
        "9698977297525d1c1bea805107fa59ce4dcb783b9828d5fd8df8ebb70c01d72a",
        "4e6fd6de538b9a70082f99c0e8f83fe78ad8508c350542432a82481f3916b5ce",
    ),
    "random0": (
        False,
        "e238cc56350dfb9f0fe42633340502c45d559cf45dc713b4211ae724239efd97",
        "3b69290ddbadf67c7e82a9a7b5d254efbcde59c60da8b280002641c4d02cc25c",
        "7b89850435cab8f159fea815d465d965cf4029804ba1813e5f4118a367a4c18f",
        "0fa8e2743e25d4e4164ed45e56b5f3e79af6f6f54ce3e513c674eba9963cfeaf",
    ),
    "random1": (
        False,
        "cf7742df10316a99430e9509961ac45b0965263090743abd187afbb80d37dfc8",
        "733c6638c90e12a08d68c47dbf9b3cb1299b41032ea54f3f35becf64e4d9097d",
        "13b3880dbfcdf056c69c87fa2b1f7349eb6832b141b51f9e311db4b162883ae0",
        "0fa8e2743e25d4e4164ed45e56b5f3e79af6f6f54ce3e513c674eba9963cfeaf",
    ),
    "random2": (
        True,
        "d63a6ec5ea2c5bc99be3e827eeee8c22e2428f922276f9e6a9a91c7e5abb442d",
        None,
        "c0c78ba154cb3f097af1b8fb551b36bebaceb896ebeb67277f24fdb247e26ddd",
        None,
    ),
    "random3": (
        True,
        "1ebcfbd89c3f5ffd18026a657d8f9f9c69cd4afa331ed290de89dca53f8bef6e",
        None,
        "2e28af76ce3c1bf18e2b830fab4a22cae299a2368cb19a723f1edd9ee94dad02",
        None,
    ),
    "random4": (
        False,
        "a76771b0ee3c0a998a193f6a8338f003d91078fd96fb93ef9b26d57008298504",
        "6370d16d66a452b48f75f0e70fc3f0303bb4e3cc2cc429b702c99b87ac51a2b1",
        "e7ff68156af6906e004ae844238851cd1d9bae1ec151fd07caa172629f63bad0",
        "2872dd6dcc3fae533bf3f7526ccaf3c0568ae36fafa38fe6077aee59ec326910",
    ),
    "random5": (
        False,
        "d8f75b7bb0c33c0be84260d49964796c543652739f07c629900644f70cb39054",
        "d31db8ea8503e9d93207bc662a6ab51fc6e9dadf9d64a9ed37980a4afc6b6847",
        "f518223af98a872e5d59eb4d3fd58be42f5f618ef20ace532c15ba8732dc31bd",
        "3aff5962393d929f654389ee14b4405dbe90ccf00f52def6a6b4939884693534",
    ),
}


INSTANCES = {name: (f, order) for name, f, order in _instances()}


@pytest.mark.parametrize("name", INSTANCES)
def test_golden_outputs(name):
    assert _digests(*INSTANCES[name]) == GOLDEN[name]


def _order_corpus():
    """quparity and eqprime at n = 2..101, 500 random formulas, and the
    inner-product formulas of 16 random 3-regular graphs per even vertex
    count 6..24."""
    for n in range(2, 102):
        yield gen_quparity(n)
        yield gen_eqprime(n)
    rng = random.Random(5)
    for _ in range(500):
        yield random_pcnf(rng)
    for v in range(6, 25, 2):
        for s in range(16):
            yield gen_ipg_qbf(random_dregular(v, 3, seed=s))


def test_default_orders_are_pinned():
    # one line per formula, the variables of its default order; a faster
    # order search must pick the same orders, not just equally narrow ones
    digest = hashlib.sha256()
    for f in _order_corpus():
        digest.update((" ".join(map(str, default_order(f).vars)) + "\n").encode())
    assert digest.hexdigest() == (
        "399cd5faa598cb9d69bc366e30210ea8358f42dea971ba5357f697e10b2b2dcc"
    )
