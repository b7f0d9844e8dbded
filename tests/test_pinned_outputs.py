"""Seeded outputs pinned by sha256 digest.

Each case runs a protocol path from fixed seeds and hashes everything it
returns: aggregate bytes, decoded items and estimates (as exact float hex),
candidates, histograms, and the CSV and manifest bytes of harness runs.
A digest moves whenever the order of rng draws, the public coins or the
estimator arithmetic changes, so refactors of these paths must leave every
digest as recorded here.  Harness manifests use the reference code only:
the concatenated code's header is not part of what is pinned.

The keyed PRF is pinned directly too, in each of its three uses: the
public coins (``int_below`` at a bound that rejects about a third of the
64-bit words, including labels whose whole first block is rejected), the
channel hash's ``(a, b)`` and the reference code's generator matrices.
So is the concatenated code: its encoder on items at both ends of each
universe, and its decoder on noise, near-codeword and block-corrupted rows.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from ldphist.codec import ConcatenatedCode, ReferenceCode, build_code
from ldphist.core import PublicRandomness, derive_fo_params, derive_hh_params
from ldphist.freq_oracle import fo_estimate_many, fo_simulate_reports
from ldphist.harness import DatasetSpec, ExperimentConfig, run_experiment
from ldphist.heavy_hitter import (
    BOT,
    MERSENNE_P,
    HashSeed,
    channel_of,
    decode_channels,
    draw_hash_seeds,
    hh_execute,
    pp_aggregate,
    pp_run,
)

PUB = PublicRandomness.from_any("pinned-outputs")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, float):
            p = p.hex()
        if isinstance(p, np.ndarray):
            p = p.tobytes()
        if not isinstance(p, bytes):
            p = repr(p).encode("utf-8")
        h.update(len(p).to_bytes(8, "little") + p)
    return h.hexdigest()


def _items(seed: int, d: int, n: int, idle_frac: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    items = rng.integers(0, d, n)
    items[rng.random(n) < idle_frac] = BOT
    return items


def _pp_result(res) -> tuple:
    item = None if res.item is None else int(res.item)
    flips = None if res.flips is None else int(res.flips)
    return (item, float(res.estimate), flips)


def fo_digest(eps: float) -> str:
    items = _items(1, 64, 3000, 0.25)
    agg = fo_simulate_reports(items, 512, eps, PUB, np.random.default_rng(2))
    return _digest(agg.to_bytes())


# m = 20,001 signs is 2,501 bytes: each column spans 40 PRF blocks, and its
# last byte (one sign) and last block (5 bytes) are partial.
FO_ESTIMATE_M = 20_001


def fo_estimate_digest() -> str:
    items = _items(12, 64, 4000, 0.25)
    agg = fo_simulate_reports(items, FO_ESTIMATE_M, 1.0, PUB, np.random.default_rng(13))
    return _digest(*[float(f) for f in fo_estimate_many(agg, PUB, range(64))])


def pp_digest(kind: str) -> str:
    code = build_code(256, kind)
    items = np.full(4000, BOT, dtype=np.int64)
    items[:1600] = 77
    items[1600:1700] = 5
    agg = pp_aggregate(items, code, 2.0, np.random.default_rng(3))
    res = pp_run(items, code, 2.0, np.random.default_rng(4))
    idle = pp_run(np.full(500, BOT, dtype=np.int64), code, 2.0, np.random.default_rng(5))
    return _digest(agg.to_bytes(), _pp_result(res), _pp_result(idle))


def hh_digest(k: int, mode: str) -> str:
    d, n, eps, beta = 32, 2000, 4.0, 0.2
    hh = derive_hh_params(d, n, eps, beta, k)
    fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
    code = build_code(d, "reference")
    items = _items(6, d, n, 0.2)
    items[:500] = 3
    items[500:800] = 11
    res = hh_execute(items, code, hh, fo, PUB, np.random.default_rng(7), mode=mode)
    parts = [
        [(int(v), float(f)) for v, f in res.histogram.entries],
        [(int(v), float(f)) for v, f in res.candidates],
        [(int(t), int(kk), int(v), float(f)) for t, kk, v, f in res.decodes],
        [s.bits for s in res.seeds],
        res.fo_agg.to_bytes(),
    ]
    parts += [(int(t), int(kk)) for t, kk in sorted(res.pp_aggs)]
    parts += [res.pp_aggs[key].to_bytes() for key in sorted(res.pp_aggs)]
    return _digest(*parts)


def hh_concatenated_digest() -> tuple:
    """Digest of a concatenated-code run, with every channel's verified
    decode, and its (decoding failures, verify rejections, accepted
    decodes) counts.  The run is at d = 2^32, where the code accepts a
    decode that corrected at most one symbol and so can reject one: at
    d = 256 every outer decode corrects none."""
    d, n, eps, beta = 2**32, 8000, 20.0, 0.2
    hh = derive_hh_params(d, n, eps, beta, 8)
    fo = derive_fo_params(d, n, hh.eps_channel, beta / 3)
    code = build_code(d, "concatenated")
    items = _items(14, d, n, 0.2)
    items[:4000] = 3
    items[4000:4800] = 11
    res = hh_execute(items, code, hh, fo, PUB, np.random.default_rng(15), mode="fast")
    keys = sorted(res.pp_aggs)
    results = decode_channels([res.pp_aggs[key] for key in keys], code, verify=True)
    counts = (
        sum(r.flips is None for r in results),
        sum(r.item is None and r.flips is not None for r in results),
        sum(r.item is not None for r in results),
    )
    parts = [
        [(int(v), float(f)) for v, f in res.histogram.entries],
        [(int(v), float(f)) for v, f in res.candidates],
        [(int(t), int(kk), int(v), float(f)) for t, kk, v, f in res.decodes],
        [_pp_result(r) for r in results],
        res.fo_agg.to_bytes(),
    ]
    parts += [(int(t), int(kk)) for t, kk in keys]
    parts += [res.pp_aggs[key].to_bytes() for key in keys]
    return _digest(*parts), counts


def _concatenated_items(d: int) -> list:
    rnd = random.Random(d)
    return [0, 1, d - 1, d // 2] + [rnd.randrange(d) for _ in range(300)]


def concatenated_encode_digest(d: int) -> str:
    return _digest(ConcatenatedCode(d).encode_many(_concatenated_items(d)))


def concatenated_decode_digest(d: int) -> str:
    """Decodes of noise rows, of codewords with 5% of their coordinates
    flipped, and of codewords with 1 to n_out / 2 + 1 inner blocks replaced
    by noise (symbol errors up to one past the outer code's capacity)."""
    code = ConcatenatedCode(d)
    rng = np.random.default_rng(d % 1_000_003)
    signs = np.array([-1, 1], dtype=np.int8)
    noise = rng.choice(signs, size=(400, code.m))
    words = code.encode_many(_concatenated_items(d)[:200])
    near = np.where(rng.random(words.shape) < 0.05, -words, words).astype(np.int8)
    blocks = words.copy().reshape(len(words), code.n_out, 256)
    for i, row in enumerate(blocks):
        bad = rng.choice(code.n_out, size=1 + i % (code.n_out // 2 + 1), replace=False)
        row[bad] = rng.choice(signs, size=(len(bad), 256))
    return _digest(*[code.decode_many(Y) for Y in (noise, near, blocks.reshape(len(words), -1))])


def harness_digest(tmp_path, name: str) -> str:
    configs = {
        "fo": ExperimentConfig(
            protocol="fo", dataset=DatasetSpec(kind="uniform", d=32, n=2000, seed=8),
            eps=1.0, beta=0.2, seed=8, trials=2,
        ),
        "pp": ExperimentConfig(
            protocol="pp",
            dataset=DatasetSpec(kind="promise", d=256, n=3000, seed=9, eta=0.6, item=77),
            eps=2.0, beta=0.2, seed=9, trials=2,
        ),
        "hist": ExperimentConfig(
            protocol="hist",
            dataset=DatasetSpec(kind="planted", d=32, n=2000, seed=10,
                                planted=((3, 0.3), (11, 0.2))),
            eps=4.0, beta=0.2, seed=10, trials=2,
        ),
        "fo-one-bit": ExperimentConfig(
            protocol="fo", dataset=DatasetSpec(kind="uniform", d=16, n=1500, seed=11),
            eps=math.log(2), beta=0.2, seed=11, trials=1, one_bit=True,
        ),
        "hist-one-bit": ExperimentConfig(
            protocol="hist",
            dataset=DatasetSpec(kind="planted", d=16, n=1000, seed=12, planted=((3, 0.9),)),
            eps=math.log(2), beta=0.5, seed=12, trials=1, k_override=8, one_bit=True,
        ),
    }
    csv_path, manifest_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    run_experiment(configs[name], out_csv=str(csv_path), out_manifest=str(manifest_path))
    return _digest(csv_path.read_bytes(), manifest_path.read_bytes())


# limit = 2 * bound, so about 1/3 of the words are rejected and about one
# label in 3^8 = 6561 rejects all 8 words of its first block.
INT_BELOW_BOUND = 2**64 // 3 + 1
INT_BELOW_LABELS = 20_000


def int_below_digest() -> str:
    draws = [PUB.int_below(("int-below", i), INT_BELOW_BOUND) for i in range(INT_BELOW_LABELS)]
    return _digest(draws)


def hash_pair_digest() -> str:
    # channel_of(seed, v, p) is (a v + b) mod p, so v = 0 and v = 1 give b
    # and (a + b) mod p exactly.
    seeds = [HashSeed(b""), HashSeed(b"\x00"), HashSeed(bytes(range(16)))]
    seeds += draw_hash_seeds(PUB, 4, 22)
    return _digest([[channel_of(s, v, MERSENNE_P) for v in (0, 1)] for s in seeds])


def reference_code_digest() -> str:
    parts = []
    for t in range(1, 17):
        code = ReferenceCode(2**t)
        parts += [code.encode_many(range(2**t)), float(code.zeta_eff)]
    return _digest(*parts)


FO = {
    0.5: "73930fb9d9c67fde09c8f11c51313267f7f21290c1f678b59de4a42680120172",
    1.0: "4ca61c516d1ca16418eac3dad7a569a91a1919d31a3272b79b300281670577ac",
    2.5: "943e9348a5659ae82bbe73b86fbc49da4a0ac384ef9515dcfe3d6b426d7e9353",
}
FO_ESTIMATES = "c1c20e7f774134d82a49dd9f9d7b0f9510f083664fa460af1fdbd6fd4e16bda1"
PP = {
    "reference": "c4b710da1b42ee6431cc8f339969b47e7715cd2d3c448421a0a703555a42f812",
    "concatenated": "9b1dc94c666fa5af4a6e28e3df9aed71f3c8c3e97d87699d16522d0ad640cf0e",
}
HH = {
    ("10n", "fast"): "e95657635da1358a94349a79a60689e417e39784eda7cd0916f38b112138aad7",
    (8, "fast"): "570c47ecf2591e58276ed24449dcbe3894ffeb6b5ed1cdceb0672a4a2adedb96",
    (8, "faithful"): "72df78165d7329743615f73b4aa73dae77bac81064c7f034bcf711e310da14e9",
    (64, "faithful"): "32d0ecdf09131a541b439a1687e46d692a5436663d848c34cb0e0d366aa1d5b8",
}
HH_CONCATENATED = "d6927c369a56593c789a72ad00e92515406aed15c05546461e20086f95df92ed"
CONCATENATED_ENCODE = {
    256: "e8b5d87053735316870a16bd6fce6d9a1cd0ff5a4d7ddc92546b18f05e78e14e",
    1000: "9bdcf66271476d783f144ccbf8321753b34991b6f92fa0908a6e19eebb74dbc5",
    2**16: "8f7f72846fb6a175a26e8f69a43c293b69a374a0b9ff764904808af3a131fd2f",
    2**32: "a0412108ad42bb982d9126da9776b5fb10376c69b2d5d95e27f9a00b362cc07c",
    2**64: "56e475f4489d7c82d808fa8b4534f1a827b1a0357af0496e59ea3fd3d1fa5301",
}
CONCATENATED_DECODE = {
    1000: "ecd9cf09021fe6f7e3804f52be545b89c33d53d5ca969986a2b1f950d08310ef",
    2**16: "f3414c9a9b3bf58388aab2caeba7a8738788888e4201c95faccd8311cc9cabe1",
    2**32: "059aa765930898ff1954c3a7453399f00ec0cac9912155d87bdd2770ad189fc8",
    2**64: "7937bea4e3a776fbda06c81d52665dec57dca258b1ca6e10dd0b949521908089",
}
HARNESS = {
    "fo": "6354a80337bc38e820abe586c2736ed18b2cd8b72cc0757485f8bf8d59779680",
    "pp": "954cea231f1e6b7f0a113a3ca5d66101b758262a8827bf361462b09cde82a350",
    "hist": "7d89a542341e008d9a6779ff44fbc8df76a9478b9e6c89823c496f9b9696e29b",
    "fo-one-bit": "3bbf7bbd2431444688076654bad0570ad4c21abe7e3a1b481908276ef86bda79",
    "hist-one-bit": "079c7c1136619f4c992de427d32652de6530c405c2d29ae5d7443fc452442247",
}
PRF = {
    "int_below": "6780d45065d4fe06903361ef3864082c698fa5c8532dec92659f678a37cb0083",
    "hash_pair": "155a8ddbaede67a669b93c43055d150694798968ac9ebc7297cccf68dc94dbd6",
    "reference_code": "d256bf975c671876ed5641e13ea70cbc20a5ed557bdc58f957bb442102d98d1a",
}


@pytest.mark.parametrize("eps", sorted(FO))
def test_fo_simulate_reports(eps):
    assert fo_digest(eps) == FO[eps]


def test_fo_estimate_many():
    assert fo_estimate_digest() == FO_ESTIMATES


@pytest.mark.parametrize("kind", sorted(PP))
def test_promise_protocol(kind):
    assert pp_digest(kind) == PP[kind]


@pytest.mark.parametrize("k, mode", sorted(HH, key=str))
def test_hh_execute(k, mode):
    assert hh_digest(10 * 2000 if k == "10n" else k, mode) == HH[(k, mode)]


def test_hh_execute_concatenated():
    digest, counts = hh_concatenated_digest()
    assert all(counts), counts  # failures, rejections and decodes all occur
    assert digest == HH_CONCATENATED


@pytest.mark.parametrize("d", sorted(CONCATENATED_ENCODE))
def test_concatenated_encode_many(d):
    assert concatenated_encode_digest(d) == CONCATENATED_ENCODE[d]


@pytest.mark.parametrize("d", sorted(CONCATENATED_DECODE))
def test_concatenated_decode_many(d):
    assert concatenated_decode_digest(d) == CONCATENATED_DECODE[d]


@pytest.mark.parametrize("name", sorted(HARNESS))
def test_harness_outputs(tmp_path, name):
    assert harness_digest(tmp_path, name) == HARNESS[name]


def test_int_below_stream():
    assert int_below_digest() == PRF["int_below"]


def test_int_below_steps_to_second_block():
    limit = 2 * INT_BELOW_BOUND

    def rejects_first_block(i):
        block = PUB.bytes_at(("int-below", i), 64)
        return all(int.from_bytes(block[o : o + 8], "little") >= limit for o in range(0, 64, 8))

    assert any(rejects_first_block(i) for i in range(INT_BELOW_LABELS))


def test_channel_hash_pair():
    assert hash_pair_digest() == PRF["hash_pair"]


def test_reference_code_generators():
    assert reference_code_digest() == PRF["reference_code"]
