"""Recorded digests for the machines the frozen reference cannot check.

``ReferenceProcessor`` models only ideal ports and the perfect
frontend, and the specialized-versus-portable cross compares two
kernels composed from the same stage source, so neither can see a
change of meaning in a stage.  These pins can: each digest is the
SHA-256 of the canonical JSON of cycles, instructions and counters,
recorded from the kernel before the memory stage charged port stalls
in one step, over every port policy x memory shape x frontend on one
synthetic stream and one mini-C program.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import MachineConfig
from repro.core.processor import Processor
from repro.workloads.builder import build_trace

#: Memory shapes: (name, MachineConfig.baseline keyword arguments).
SHAPES = (
    ("2+0", dict(l1_ports=2, lvc_ports=0)),
    ("2+2", dict(l1_ports=2, lvc_ports=2)),
    ("2+2:opt", dict(l1_ports=2, lvc_ports=2, fast_forwarding=True,
                     combining=2)),
    ("2+2:comb4", dict(l1_ports=2, lvc_ports=2, combining=4)),
    ("1+1:ff", dict(l1_ports=1, lvc_ports=1, fast_forwarding=True)),
)
PORTS = ("ideal", "finite", "banked", "replicated")
FRONTENDS = ("perfect", "gshare")
#: (workload, instruction count or execution budget).
WORKLOADS = (("130.li", 4000), ("mini.qsort@O0", 4000))


def pin_config(shape: str, ports: str, frontend: str) -> MachineConfig:
    config = MachineConfig.baseline(**dict(SHAPES)[shape])
    config.mem.l1_port_policy = ports
    config.mem.lvc_port_policy = ports
    config.frontend.policy = frontend
    return config


def digest(result) -> str:
    """SHA-256 of the canonical JSON of a run's cycles, instructions
    and counters."""
    body = json.dumps({"cycles": result.cycles,
                       "instructions": result.instructions,
                       "counters": result.counters.as_dict()},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def pin_key(workload: str, shape: str, ports: str, frontend: str) -> str:
    return f"{workload}|{shape}|{ports}|{frontend}"


#: pin_key -> digest, recorded before the one-step port-stall charge.
DIGESTS = {
    '130.li|2+0|ideal|perfect':
        '70ed48d36a2007625fbd4436aba15b1ad7f577b4f62ac5beecf25751f5c3f5cd',
    '130.li|2+0|ideal|gshare':
        'f835c666d0b66037005b52cc459f38a9dcf4168545a1230cade2b955f1d68d8f',
    '130.li|2+0|finite|perfect':
        'dceec5bb83613c60efba3c3845832a5651c97c40a25f0a2d6c38dcab1ce2cf9f',
    '130.li|2+0|finite|gshare':
        '0f53fc7474203adeb33ae3583ffede065e7200d55d786fa21dea570cc48965f5',
    '130.li|2+0|banked|perfect':
        'b2e2614de3a10b2c60ac54983ac795b6ff1b9f633a7b1e35fa274f831e6224f4',
    '130.li|2+0|banked|gshare':
        'd53433dba1243f09466620c3f946c540277582919979e95a8ec6dff48ccfc171',
    '130.li|2+0|replicated|perfect':
        '144780568e9dd1682dfd875fe420f028305d12021b21d8a72c26ee2662085cbc',
    '130.li|2+0|replicated|gshare':
        'fd6fd265783e1373bde6c675ae83f36e4932b3ad440e8ede044ed5921c3a08bf',
    '130.li|2+2|ideal|perfect':
        '7ef2baa9dea5829a4bae20fa3aced62ebdd760e71118f6d451fb005e35defcd2',
    '130.li|2+2|ideal|gshare':
        '6b090f0001629c1f5cf5256e16dbb851951665ef37182459bcd81ef5a1388d88',
    '130.li|2+2|finite|perfect':
        'd4435b4f52290f620798e066580b859bb8218cf489b10fa87bc95ee2e0c834e3',
    '130.li|2+2|finite|gshare':
        '634491553263dbd6c08881eecba40f37e2dc6f262371b11a4b5b532d8ed6ed59',
    '130.li|2+2|banked|perfect':
        'cbabee0f704adbce99ba22889de7b5d1555506ae2d8bd21d345ccf508c943005',
    '130.li|2+2|banked|gshare':
        '2d494b084c1aa0c35c5971b8a0cad88f66d9c07ae20199bbf0418250497d362a',
    '130.li|2+2|replicated|perfect':
        '4da828ef10cce301b24d29c25e4b0a3e4d9a0dfde10fab88e8b0a7ea0ef2f3a6',
    '130.li|2+2|replicated|gshare':
        '8e87907ef214e3b6cdb217ed2fc289d7eef4cf3db7f0ce1e0a8dd9d225e75ff1',
    '130.li|2+2:opt|ideal|perfect':
        '38b806c9f088c8158627dabe4b41e9ee5682eb76fcab26a44af8e52eab709e7f',
    '130.li|2+2:opt|ideal|gshare':
        '30d300b167909fd9a954fe51b006d3431cbac55d696736a1e4b256b53c39d833',
    '130.li|2+2:opt|finite|perfect':
        '59a39bb6959c96a3c1ce65fa1e1d76cb183d8e32edf98e63c51794f444bd1fa8',
    '130.li|2+2:opt|finite|gshare':
        '146337aecb90d8f6d60abfaae09d931c641f25467269981997e565dcc84f5683',
    '130.li|2+2:opt|banked|perfect':
        '3361b9d563e34c9d07066cd9113331d0509017550dda56a309a33aacaf8953dc',
    '130.li|2+2:opt|banked|gshare':
        '15583d66c16a7dc15a94650b919ccc6dd0d30b6c34eb257abc156b1ad26c8c17',
    '130.li|2+2:opt|replicated|perfect':
        '5746f96ac512f91adf629dc410b34b249c4296b8ce9728f8c38c3812e223707e',
    '130.li|2+2:opt|replicated|gshare':
        '4d7f7f7ee96e596cc9c4ad40f5430543d4a6511053e3bcd45979c541808dd5f3',
    '130.li|2+2:comb4|ideal|perfect':
        '02e84c41b843972eb8ec7fd0d34098b3742d2574e53ce54ef8e738c6ff4e4ce5',
    '130.li|2+2:comb4|ideal|gshare':
        'dabac1e80bcdc68ff4b8f3ac501b43c1a7e45834c3820bf89f78dc44d372d398',
    '130.li|2+2:comb4|finite|perfect':
        '08ab373f97acc147ebe19291d86662dbe7ff0eae3b37a55d74a40a00b4f681bb',
    '130.li|2+2:comb4|finite|gshare':
        'a9795784c6547e69e2ae2f0197e5af1a6778a61a85d6b5d3d87b354ca67c3ba1',
    '130.li|2+2:comb4|banked|perfect':
        '3d2b8829bc0da97ffdc01ad671efcdffe084b50920504e3ae5898dfd59b16382',
    '130.li|2+2:comb4|banked|gshare':
        '408e4da583f091d1ecbd0a55731e8e49be03aba422b2e81ee0ca6952c1746aee',
    '130.li|2+2:comb4|replicated|perfect':
        '0e893ad05dcf39a1089c08923602355ecafc20c9d81b534745c7d5389152ce92',
    '130.li|2+2:comb4|replicated|gshare':
        'aa320e8e610b60bd0ee65c165ec93eaa156e2e10de8507baa864cbc1f8fb6299',
    '130.li|1+1:ff|ideal|perfect':
        '95396046e79d6252b14d38d8d0000cfd3085657b2b3d0d7c91e38ec0d8ed8505',
    '130.li|1+1:ff|ideal|gshare':
        'b4f4979c08e8fa6d3d7b9bcb411d0d7a50ac689722723d73ed95b66aa1fe4ab4',
    '130.li|1+1:ff|finite|perfect':
        '15854d7d1317db9bf5b1d54d35246b11cf44299ffdaaa555ff9be86423ba4fa8',
    '130.li|1+1:ff|finite|gshare':
        '948cfe37e84d52566601babb4b9e475cd91b638527f3b77e0e8ce50a6771c990',
    '130.li|1+1:ff|banked|perfect':
        '95396046e79d6252b14d38d8d0000cfd3085657b2b3d0d7c91e38ec0d8ed8505',
    '130.li|1+1:ff|banked|gshare':
        'b4f4979c08e8fa6d3d7b9bcb411d0d7a50ac689722723d73ed95b66aa1fe4ab4',
    '130.li|1+1:ff|replicated|perfect':
        '95396046e79d6252b14d38d8d0000cfd3085657b2b3d0d7c91e38ec0d8ed8505',
    '130.li|1+1:ff|replicated|gshare':
        'b4f4979c08e8fa6d3d7b9bcb411d0d7a50ac689722723d73ed95b66aa1fe4ab4',
    'mini.qsort@O0|2+0|ideal|perfect':
        '707ce76660153a6e3bf842726b8ece0a76637ffd001c3b9dd703f761c5376347',
    'mini.qsort@O0|2+0|ideal|gshare':
        '46303233c3c08c7fab0c4471449f60fb72afcd5d2db570240de49430429fc9d3',
    'mini.qsort@O0|2+0|finite|perfect':
        '514164839ba3a61b4fedb91b9c3b58d756458be4353ebe64139eb333ae048413',
    'mini.qsort@O0|2+0|finite|gshare':
        '6b628e42e965e1b7d604433a7f42c8b0035a8e43b205113047f9871f399d3d5a',
    'mini.qsort@O0|2+0|banked|perfect':
        '2d816cec7e6d762299804202b66cd113ca8188e057269ec22e5230a302fc9486',
    'mini.qsort@O0|2+0|banked|gshare':
        '0be9f4685ab2b86507bd1fc4487552effd8060c6b61c2242a479f0230803227b',
    'mini.qsort@O0|2+0|replicated|perfect':
        'e5128071ca1b2c5d1dc060f3f5da39a2ee4637f39aef583e3eddb46df6a3f92b',
    'mini.qsort@O0|2+0|replicated|gshare':
        '6eca12b27d17b15c7811324d73794c47071e782f2e48f78b245db634782ccc53',
    'mini.qsort@O0|2+2|ideal|perfect':
        '4016a6ca25996c8df4c326c9ef3f10b5092082b4961284ba82571c7e9992a531',
    'mini.qsort@O0|2+2|ideal|gshare':
        '8731101f926d6a68c40a93368bc8c3e840e6786975a252f39a579d09501c3e6d',
    'mini.qsort@O0|2+2|finite|perfect':
        'cf92ee5890787b2b8aa3293f14d4693114ecd17c61c956fa64aa082d16d6b1d2',
    'mini.qsort@O0|2+2|finite|gshare':
        'd2a3812a45e71202dddbb676be70e598b6f86b9d8e410fc80c0817d269adccc8',
    'mini.qsort@O0|2+2|banked|perfect':
        '0a3b29371591fa6434357cee9335960f938123ff5cdf7b8112b5bf85c5f77365',
    'mini.qsort@O0|2+2|banked|gshare':
        '1687974b4dc6221c3e89786c7922500f7ac262ebad6e4aad659f47684b88ce74',
    'mini.qsort@O0|2+2|replicated|perfect':
        '41bdc7049403249672e6c0eb872e3025fac5c5cd470a721da80521e9aa978965',
    'mini.qsort@O0|2+2|replicated|gshare':
        'ecf7c1b19f8c3d3b0d7e3c8dd83d49a73faa6e115f1115300582609c25068110',
    'mini.qsort@O0|2+2:opt|ideal|perfect':
        '08ba53aebddfc36b414df74740e12b1ad3d52f7f72fd97f0982105c8bd02f576',
    'mini.qsort@O0|2+2:opt|ideal|gshare':
        '44133326a512e03385183b2619603ddce6feea1ec192a8d64cdda2397aa9e474',
    'mini.qsort@O0|2+2:opt|finite|perfect':
        '2357f2e6f96f1b0524d9804bc40820e81241284dabbaf1f747a8764c5d6191e5',
    'mini.qsort@O0|2+2:opt|finite|gshare':
        '2c098e15d97f0e37062b7b49ed53367edcf5c708aa991142d8010a8fb0146fe9',
    'mini.qsort@O0|2+2:opt|banked|perfect':
        'aced688d206860d4bf776da449ac821d2c8b65328bc73c44775dcd5f75ab3336',
    'mini.qsort@O0|2+2:opt|banked|gshare':
        'd0fca2483f11df2ede56f524bc4499b816963969994f9c3515911c7e4bbc6d67',
    'mini.qsort@O0|2+2:opt|replicated|perfect':
        'e8a9f3e0c4d1cc1670e4fddf9b71548b71de8e3d909870588c15ff5f2a5baf2b',
    'mini.qsort@O0|2+2:opt|replicated|gshare':
        '55f2b4d9596451eff2e7a8ad9d7c0210b3ca1fd4e83ab39ad5eb5c2ba89037a1',
    'mini.qsort@O0|2+2:comb4|ideal|perfect':
        'b9918dfbc62199945de2496d58e8612bbce1a2c5ffb997557205c957079e4336',
    'mini.qsort@O0|2+2:comb4|ideal|gshare':
        'c7bbe433668e736b45ef0f1a90ae46281f85cbd805c5e1b460923bbd98b052d7',
    'mini.qsort@O0|2+2:comb4|finite|perfect':
        'd3397ab38127b94a782965097cf174e61b27e97be09b0c4c86cb3717957c05c0',
    'mini.qsort@O0|2+2:comb4|finite|gshare':
        'c12f4d1973f3571cf3601f03ae56ec185aea24942a282eece71b0a4c56e930e5',
    'mini.qsort@O0|2+2:comb4|banked|perfect':
        '1b26574c0e67454475052e566a5a38ed630c0c15d030f871195c8db1f64cf1e9',
    'mini.qsort@O0|2+2:comb4|banked|gshare':
        '7133e9dee27e24699ba8c44602c5dad01bafb9f8691c5725c5be1732164b4ec2',
    'mini.qsort@O0|2+2:comb4|replicated|perfect':
        'bd9e6cec5140483980d8b5781c1cece4b653700706616c2c1a6f70c5337584e7',
    'mini.qsort@O0|2+2:comb4|replicated|gshare':
        '778fa6fc83befac6aec9cb9052b66617d55f05c6566b335449427d42a3ccaa45',
    'mini.qsort@O0|1+1:ff|ideal|perfect':
        '6cace0fcbeef36471e60627e4e2528136403347eb5ffd834dbe88d928094954c',
    'mini.qsort@O0|1+1:ff|ideal|gshare':
        'df87e4cb03fe1e325ade7c8e882835de7c377bbbb4aabd03fd1cbe74b9a176d7',
    'mini.qsort@O0|1+1:ff|finite|perfect':
        '0780c3a20a78de00e242268e7985574b83449730491645cc3f2c1963cd710d58',
    'mini.qsort@O0|1+1:ff|finite|gshare':
        '5d0b669e5f84d4048af5c0ce60ae4d9ccd7388c47c746ce38a68998f4f7a59bc',
    'mini.qsort@O0|1+1:ff|banked|perfect':
        '6cace0fcbeef36471e60627e4e2528136403347eb5ffd834dbe88d928094954c',
    'mini.qsort@O0|1+1:ff|banked|gshare':
        'df87e4cb03fe1e325ade7c8e882835de7c377bbbb4aabd03fd1cbe74b9a176d7',
    'mini.qsort@O0|1+1:ff|replicated|perfect':
        '6cace0fcbeef36471e60627e4e2528136403347eb5ffd834dbe88d928094954c',
    'mini.qsort@O0|1+1:ff|replicated|gshare':
        'df87e4cb03fe1e325ade7c8e882835de7c377bbbb4aabd03fd1cbe74b9a176d7',
}


@pytest.mark.parametrize("workload,length", WORKLOADS,
                         ids=[w for w, _n in WORKLOADS])
def test_memory_stage_pins(workload, length):
    stream = build_trace(workload, length=length).insts
    mismatched = []
    for shape, _kw in SHAPES:
        for ports in PORTS:
            for frontend in FRONTENDS:
                key = pin_key(workload, shape, ports, frontend)
                result = Processor(pin_config(shape, ports, frontend)).run(
                    stream, workload)
                if digest(result) != DIGESTS[key]:
                    mismatched.append(key)
    assert mismatched == []
