"""Calibration tests: generated traces must match the paper's statistics."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.spec import ALL_PROGRAMS, INT_PROGRAMS, get_spec
from repro.workloads.synthetic import SyntheticGenerator, generate_trace

LENGTH = 60_000


@pytest.fixture(scope="module")
def traces():
    return {name: generate_trace(get_spec(name), LENGTH, seed=3)
            for name in ALL_PROGRAMS}


def test_requested_length_respected(traces):
    for trace in traces.values():
        assert LENGTH <= len(trace) <= LENGTH + 40  # bursts may overshoot


def test_load_store_fractions_match_calibration(traces):
    """Figure 2 calibration: within 15% relative tolerance."""
    for name, trace in traces.items():
        spec = get_spec(name)
        stats = trace.stats
        assert stats.load_fraction == pytest.approx(spec.load_frac,
                                                    rel=0.15)
        assert stats.store_fraction == pytest.approx(spec.store_frac,
                                                     rel=0.20)


def test_local_fraction_matches_calibration(traces):
    for name, trace in traces.items():
        spec = get_spec(name)
        assert trace.stats.local_fraction == pytest.approx(
            spec.local_mem_frac, rel=0.2, abs=0.03
        )


def test_frame_sizes_small(traces):
    """Figure 3: dynamic frames average a few words.

    126.gcc is the calibrated exception: its large-frame tail (which drives
    the paper's Figure 6 LVC miss rates) pulls its mean up.
    """
    for name in INT_PROGRAMS:
        mean = traces[name].stats.frame_sizes.mean()
        bound = 40.0 if name == "126.gcc" else 12.0
        assert 1.0 <= mean <= bound, name


def test_gcc_has_large_frame_tail(traces):
    gcc = traces["126.gcc"].stats.frame_sizes
    li = traces["130.li"].stats.frame_sizes
    assert gcc.max() > 100
    assert gcc.percentile(0.99) > li.percentile(0.99)


def test_call_depths_match_spec(traces):
    for name, trace in traces.items():
        assert trace.stats.max_call_depth <= get_spec(name).max_depth + 1


def test_deterministic_per_seed():
    spec = get_spec("130.li")
    a = generate_trace(spec, 5000, seed=9)
    b = generate_trace(spec, 5000, seed=9)
    assert len(a) == len(b)
    assert all(x.fu == y.fu and x.addr == y.addr
               for x, y in zip(a.insts, b.insts))


def test_seeds_differ():
    spec = get_spec("130.li")
    a = generate_trace(spec, 5000, seed=1)
    b = generate_trace(spec, 5000, seed=2)
    assert any(x.addr != y.addr for x, y in zip(a.insts, b.insts))


def test_local_refs_in_stack_region(traces):
    from repro.isa.program import STACK_BASE, STACK_LIMIT

    for trace in traces.values():
        for inst in trace.insts[:2000]:
            if inst.is_mem and inst.is_local:
                assert STACK_LIMIT <= inst.addr < STACK_BASE


def test_global_refs_below_stack(traces):
    for trace in traces.values():
        for inst in trace.insts[:2000]:
            if inst.is_mem and not inst.is_local:
                assert inst.addr < 0x20000000


def test_sp_based_refs_have_frame_keys(traces):
    trace = traces["147.vortex"]
    for inst in trace.insts[:3000]:
        if inst.is_mem and inst.sp_based:
            assert inst.frame_id > 0 or inst.offset >= 0


def test_ambiguous_fraction_small(traces):
    """Section 2.2.3: <1% of references are ambiguous."""
    for trace in traces.values():
        stats = trace.stats
        if stats.mem_refs:
            assert stats.ambiguous_refs / stats.mem_refs < 0.02


def test_fp_programs_emit_fp_ops(traces):
    from repro.isa.opcodes import FuClass

    fp_ops = sum(1 for i in traces["102.swim"].insts
                 if i.fu in (int(FuClass.FADD), int(FuClass.FMUL)))
    assert fp_ops > 0.1 * LENGTH


def test_integer_programs_no_fp(traces):
    from repro.isa.opcodes import FuClass

    fp_ops = sum(1 for i in traces["130.li"].insts
                 if i.fu in (int(FuClass.FADD), int(FuClass.FMUL)))
    assert fp_ops == 0


def test_bad_length_rejected():
    with pytest.raises(WorkloadError):
        SyntheticGenerator(get_spec("130.li"), 0)


#: ``payload_sha256`` of ``encode_trace(generate_trace(spec, 4000, 1))``
#: per program, recorded before the generator appended columns.  A change
#: in RNG consumption, field values or trace encoding moves a digest.
PINNED_PAYLOADS = {
    "099.go": "9ad82df66971146448bc9271c800910b"
              "1f453e5a9a778ce71db0c77324a39110",
    "124.m88ksim": "99159995097be058c8051c3f7f7d0125"
                   "f14f5696f962709fc1d54141c39bfc3d",
    "126.gcc": "5856c0e97fd222569bf345a26813481c"
               "e55d4dd4753e7e18e2c0a35775076904",
    "129.compress": "506dfae814eb337ae496bec9c4f67241"
                    "d580ca5120c85ff8b5ed06ce84c898c8",
    "130.li": "b6bff1f67f187e79b73a0c9c31b493d5"
              "7ae3e4849926a0eb30c35ff022473f47",
    "132.ijpeg": "cd20c765aa8d1acd481f3a8d634604f0"
                 "8db26ac9080e01c57eb10ccf35c91817",
    "134.perl": "7930501a8c06a441ca955c645e33eaf8"
                "31971008afbd67714ab70798d771451a",
    "147.vortex": "05ef97f56241d7b83d3f8849fa782e9e"
                  "f7f21a7569b4d6240fb72a6d62cca194",
    "101.tomcatv": "acc01ac48cdaac7679cdd130ed38bdd1"
                   "7463a9de3f865b3416345caa93403055",
    "102.swim": "6756e350067969423e3a4f44d86c3fbc"
                "cd809a891dc62fc1b40e9605458bbdab",
    "103.su2cor": "116b8cbb8384634ce65b0e884e75d1e2"
                  "abe84fcf51dd4d22f228a06cc9772863",
    "107.mgrid": "a249df0b20b6e74a6dbaa425d958dee3"
                 "7c72a257e8cfe1c35472d96387f47e96",
}


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_stream_is_pinned(name):
    """The generator's stream for seed 1 is fixed across versions."""
    from repro.trace.format import _parse_header, encode_trace

    blob = encode_trace(generate_trace(get_spec(name), 4000, seed=1))
    header, _offset = _parse_header(blob, name)
    assert header["payload_sha256"] == PINNED_PAYLOADS[name]


#: ``(payload_sha256, stats digest)`` of ``generate_trace(spec, 20_000, 2)``
#: per program; the stats digest is the SHA-256 of the canonical JSON of
#: ``_stats_header(trace.stats)`` (calls, max depth, the frame-size
#: histogram Figure 3 renders).  At this length every integer program
#: reaches its ``max_depth``.
PINNED_SEED2 = {
    "099.go": ("608dc360b59794137184e26b5c4dd415"
               "c71e8f1add6ef7380c544615ce3537e5",
               "d8bb0c92e115d5c1aa692392e5916b8b"
               "005a9d9509b109d476832087e7002821"),
    "124.m88ksim": ("e0b4ce3514ca487e6afc8b11800fab8e"
                    "d398989702145cd332892449bf087474",
                    "914e6eec9cb57e19723e1d5c6fac6e14"
                    "2de263b7e142d6f6762d97baa3bc7775"),
    "126.gcc": ("12f9ff1bd60e2197b77fa96a5905f8da"
                "62d16d2e9ce97234aec9038bc56e6951",
                "6dcc1db31faae088acc75a9da7806afb"
                "c8387af0635454e2a20eab40a2d6907d"),
    "129.compress": ("5bdeb2dc92b22c36c2e88ba0548499f1"
                     "4d227d87aeeaef20dbf5c90739e80a1e",
                     "88268660d7e2209000a69ae2a75f8246"
                     "0d1f27ac0547c0ba6212a97ce32e37c8"),
    "130.li": ("4c7f40d273189c3b03f513b76cc4d4ba"
               "dfebf3990fa67182c848d8691f68a692",
               "dbd12e3ea93b35e9e11845318b8f7c1e"
               "f09f0e30478e8f5042fad0a0a1b7795d"),
    "132.ijpeg": ("bef6269d06c0697c154987ddbae6770f"
                  "f60cb6d7651d1360ddfeaf0e2271b870",
                  "b5bd28431c0b52ebc159ccde32c4edac"
                  "36f295622e38cd7e7544630fa1e1e6e7"),
    "134.perl": ("ad1cc5997d9a52d8480baedb0e83bfb5"
                 "0c5b26ba80d854efd1c7ce64c57a5e71",
                 "7c65d673494bc0d5d8479ec7e6c97512"
                 "d7bc40e7fae0e1b699fa699c47c44cd3"),
    "147.vortex": ("180bbdaa2e6d71a6758100b579362b5c"
                   "9421e2164b8e07421d926ad672fed46c",
                   "7fb21e74eb029f6a7767e1bff1642676"
                   "8deed3d771160e8a67358c4fae61e4cc"),
    "101.tomcatv": ("e2e742b7ee446f5bfd8b87a0d2f64123"
                    "9beee8952e7853e2d9483c39976c2d9c",
                    "e546d034e1190e065651fd47fc528107"
                    "df06dc41e4abba8f5ab21cc172533d02"),
    "102.swim": ("fb5bf879beac144be3b92711882234ac"
                 "94aa34d7ecbd49c3f7e3908fe9f36a8a",
                 "821d379b600607cb59755750f086020e"
                 "f5de155fbe17be32b8a6da447876ddf3"),
    "103.su2cor": ("19a8b865105888a80727fb2e45f57227"
                   "8b717e1fc90c77522e5c1686f6356572",
                   "0305f6afb09175b0ae9874617c1c3815"
                   "4cac601ebd3e2ccfb19496613e9162da"),
    "107.mgrid": ("eeba219288d94983dfe20a448ddb62c1"
                  "a12cf2e6db40d7f43ebe1e8509e3f7d8",
                  "5803ff63bf856cca8c91901e536dab4a"
                  "10d190d66136ff4598c2116cf1e7878e"),
}


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_stream_and_stats_are_pinned(name):
    """Seed 2 at 20k instructions: the payload and the header's stats."""
    import hashlib

    from repro.trace.format import (_canonical_json, _parse_header,
                                    _stats_header, encode_trace)

    trace = generate_trace(get_spec(name), 20_000, seed=2)
    header, _offset = _parse_header(encode_trace(trace), name)
    stats = _canonical_json(_stats_header(trace.stats)).encode("utf-8")
    assert (header["payload_sha256"],
            hashlib.sha256(stats).hexdigest()) == PINNED_SEED2[name]


@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_kept_stats_match_columns(name):
    """The stats the generator keeps as it goes equal the stats
    recomputed from the columns; size is 4 on exactly the memory ops."""
    from repro.isa.opcodes import FuClass

    trace = generate_trace(get_spec(name), 20_000, seed=2)
    insts = trace.insts
    load, store = int(FuClass.LOAD), int(FuClass.STORE)
    loads = [i for i, fu in enumerate(insts.fu) if fu == load]
    stores = [i for i, fu in enumerate(insts.fu) if fu == store]
    mem = loads + stores
    stats = trace.stats
    assert stats.instructions == len(insts)
    assert stats.loads == len(loads)
    assert stats.stores == len(stores)
    assert stats.local_loads == sum(insts.is_local[i] for i in loads)
    assert stats.local_stores == sum(insts.is_local[i] for i in stores)
    assert stats.sp_based_refs == sum(insts.sp_based[i] for i in mem)
    assert stats.ambiguous_refs == sum(insts.hint[i] is None for i in mem)
    mem_set = set(mem)
    assert insts.size == [4 if i in mem_set else 0
                          for i in range(len(insts))]
