"""Byte-level golden digests of the MSO -> gamma-DFA pipeline.

Each digest is the sha256 of the repr of a compiled automaton's sorted
states, initial states, final states and transitions, so a change in any
state name, any transition or its multiplicity shows.  The digests were
recorded on the explicit-letter pipeline this package used before its
transition functions became decision diagrams.
"""

import hashlib
import itertools

import pytest

from origami import cli, resync
from origami.formats import format_automaton
from origami.mso import mso_compile, parse_formula

from test_acceptance import MSO_CORPUS
from test_mso import CORPUS

AB = ("a", "b")
HALT2_LETTERS = tuple(f"t{i}" for i in range(1, 13))   # HALT2's twelve tiles


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def automaton_digest(n):
    return _sha(repr((sorted(n.states, key=repr), sorted(n.initial, key=repr),
                      sorted(n.final, key=repr), sorted(n.transitions, key=repr))))


def gamma_cases():
    """(name, resynchronizer) for every case whose gamma_dfa() is pinned."""
    yield "identity", resync.make_identity(AB)
    yield "universal", resync.make_universal(AB)
    yield "pm1", resync.make_pm1(AB)
    yield "first", resync.make_first(AB)
    yield "param-example", resync.make_param_example(AB)
    yield "block", resync.make_block(AB)
    for k in range(6):
        yield f"shift({k})", resync.make_shift(k, AB)
        yield f"shift({k}) over HALT2", resync.make_shift(k, HALT2_LETTERS)
    for k in range(5):
        yield f"R_{k}", resync.make_Rk(k, base=AB)
    ext = resync.make_first_to_last()
    for tau in ext.types():
        yield f"first-to-last {tau}", ext._gamma_resync(tau)
    yield "first-to-last simplified", resync.simplify_extended(ext)
    for i, (text, sig) in enumerate(MSO_CORPUS):
        yield f"c8-{i}", resync.Resynchronizer(sig[:-2], parse_formula(text), base=AB)


def compile_cases():
    """(name, formula, signature, base) whose mso_compile output is pinned."""
    for i, (text, sig) in enumerate(MSO_CORPUS):
        yield f"c8-{i}", parse_formula(text), sig, AB
    for i, (formula, sig) in enumerate(CORPUS):
        yield f"mso-corpus-{i}", formula, sig, AB
    yield "hash-seed", parse_formula("x < y & forall z. ((x < z & z < y) -> a(z))"), ("x", "y"), AB
    yield "exists2 X. true", parse_formula("exists2 X. true"), (), AB


GAMMA_DIGESTS = {
    'identity': '20753eb98fa6d2f760aa7b40d1e3fceb88a5c07671098be186353f2fd08be084',  # 3 states, 24 transitions
    'universal': 'd85d08f41afa040d55c0d0055c7f5c767e45b362b0c29c481f6f0f8a622fe78b',  # 5 states, 40 transitions
    'pm1': 'f2750984dfadccd1a3c18278f503a34a987fc4095827c54effc5c3fb343adbc9',  # 5 states, 40 transitions
    'first': '979449a64de04e6c82c609737ed2e2133bbfb7f14adafc74cd19a3ff3214426f',  # 4 states, 32 transitions
    'param-example': '3fce874f42ee761d6ca2633641f6262c2abe770ac73d22be3855b8a716d177f4',  # 7 states, 112 transitions
    'block': 'd0b8a1c95cfc9e1bb7221b1d26fbb0c551ca74dc3c39844545659928244ce368',  # 6 states, 48 transitions
    'shift(0)': '20753eb98fa6d2f760aa7b40d1e3fceb88a5c07671098be186353f2fd08be084',  # 3 states, 24 transitions
    'shift(0) over HALT2': 'afda63dc5b34b2ce8138bd3f0cfa6aaf383937ef58174d270cde17b3ab09521b',  # 3 states, 144 transitions
    'shift(1)': '905e4f77f20f595c1ca73c064a6a70413ecabddedefc6ffd779331c41cc2f751',  # 4 states, 32 transitions
    'shift(1) over HALT2': '63f00ca382acf2dad0055385f819948b6451ff3052716b2127f11ca8fd0e44a1',  # 4 states, 192 transitions
    'shift(2)': 'fa52c0e25f77816c702e048d4a31b9cbe0f3bbf1329221f5c9ee964478cc581c',  # 5 states, 40 transitions
    'shift(2) over HALT2': 'f25c918c51f82c25022811692adc3e58040e5e0af2c884c5bd37f43299491eab',  # 5 states, 240 transitions
    'shift(3)': 'd969a4186a5cd1bef2f43aaa511b3e46ac3eed01ec28de703ba9f2152638c881',  # 6 states, 48 transitions
    'shift(3) over HALT2': 'c5a50b3924ccc854d9f9c0e1f9a536f1f2459312f5cf255ea3a09fd8b753682d',  # 6 states, 288 transitions
    'shift(4)': '7ecb203b43da08a6658a6c4bf2b07942abbb6bf0352e5d32a20f244e7e5b18d2',  # 7 states, 56 transitions
    'shift(4) over HALT2': '12992abe68f9c9f7ffc09aa9eafc9d7f2be4dd455ad97c2806b34cff8999917a',  # 7 states, 336 transitions
    'shift(5)': 'b6b5586fc987b81e240ed9d4a23a2afcd7af0f97373c4ad45915ebd25260e2fa',  # 8 states, 64 transitions
    'shift(5) over HALT2': '3c554da2bb10bf25de3fff5bd7c0f691be20140798e5cd2931246f61a9cf9bf4',  # 8 states, 384 transitions
    'R_0': '20753eb98fa6d2f760aa7b40d1e3fceb88a5c07671098be186353f2fd08be084',  # 3 states, 24 transitions
    'R_1': '7f963cf3ad9ae7bbb9dc446da7987307f1aa62c159643f939269463c67598f66',  # 5 states, 160 transitions
    'R_2': 'f10cf8092fda205eeddac8c7e7646f4f4e02d14d6ccc3e6439f74f1d2120ff30',  # 9 states, 1152 transitions
    'R_3': 'e3fa34f441bf30f11964c9eecc57550fc7563b73484fa21a4795c3b03288bf4e',  # 17 states, 8704 transitions
    'R_4': '4d0e55aa00fd83150a20af0a5ac57d45b959f5fee93bc7c07cbb38f6f240146e',  # 33 states, 67584 transitions
    "first-to-last ('c',)": 'f6e7ed49b6253b3cc363806a5a71d831f29012129ea26750d2567caf099ebd0b',  # 4 states, 32 transitions
    "first-to-last ('d',)": 'f6e7ed49b6253b3cc363806a5a71d831f29012129ea26750d2567caf099ebd0b',  # 4 states, 32 transitions
    'first-to-last simplified': 'f6e7ed49b6253b3cc363806a5a71d831f29012129ea26750d2567caf099ebd0b',  # 4 states, 32 transitions
    'c8-0': '30000a84a90985c3a9070898ae8f13dc1238b386ad365a3561dc991067141254',  # 4 states, 32 transitions
    'c8-1': '7f70623406aaba587f04817a201082773f764681da672daf2e979f987263a25e',  # 4 states, 32 transitions
    'c8-2': '20753eb98fa6d2f760aa7b40d1e3fceb88a5c07671098be186353f2fd08be084',  # 3 states, 24 transitions
    'c8-3': '35bb2c4c30c99cb646a63dc6628b4149e9e1a9cd761f1565ca0bfa672cfdde25',  # 4 states, 32 transitions
    'c8-4': 'c40ef8d0d2d3963757f9a32a83d3ca3f8dc764ee28e363895ae77fbf4a78b656',  # 4 states, 32 transitions
    'c8-5': '979449a64de04e6c82c609737ed2e2133bbfb7f14adafc74cd19a3ff3214426f',  # 4 states, 32 transitions
    'c8-6': 'f6e7ed49b6253b3cc363806a5a71d831f29012129ea26750d2567caf099ebd0b',  # 4 states, 32 transitions
    'c8-7': 'b4e03b4a9fefb14c6ddbb864782f6fb093c29eaa589577e53f0dbc3650c24a68',  # 7 states, 56 transitions
    'c8-8': 'd0b8a1c95cfc9e1bb7221b1d26fbb0c551ca74dc3c39844545659928244ce368',  # 6 states, 48 transitions
    'c8-9': '8dd08ddea0b46326d021e08d2f73500fb1d816d7b2e06dacd62fc52c3a0c2b64',  # 5 states, 40 transitions
    'c8-10': '3fce874f42ee761d6ca2633641f6262c2abe770ac73d22be3855b8a716d177f4',  # 7 states, 112 transitions
    'c8-11': 'a93c5bc80f4397b6c4b956547d630533376eb4bdc8628b4b6188f96f4000a075',  # 4 states, 128 transitions
}

COMPILE_DIGESTS = {
    'c8-0': '3012a29e85e49dc5f9c93147decad26af1edd8c54022e487a3845427b0762c44',
    'c8-0 text': '001c99bad1a3dc2376b4b9f7f75933a0609f215c12d0b3be03f653cd629bf6ad',
    'c8-1': '1fb8c3c9e8442e3fa35387c1dcfceb93d55a3e914d639a5f37d092f3244703e7',
    'c8-1 text': 'd62fed4e54abcb95828e73e4f1c134f4687dbcca08cba94180a7496fc51cb3b2',
    'c8-2': 'f1d5c2e472e0410d2487a9209f9fe142ec5997d92d2a15448f718d4523293912',
    'c8-2 text': '60cffa85b1b18b50577eee4bd4ed0195e6e9580ed2529c02892b67d01d5bc29d',
    'c8-3': '0727343f5d416cba60f6e45e0f0a470895c6f8c20ad636e2b652006e31184b8c',
    'c8-3 text': '645d65df689023bde52e89498ea5738019ef5f66866e4619f4b20c78bf726195',
    'c8-4': '6a2309b6b0fff43eae2bc833aeb505274b71815cbc885fdda680da31eff0f529',
    'c8-4 text': '85abee72adaf888e64d02e1b40c1f222a49cf3a7a9ec6f9724774fd6ac3e3b48',
    'c8-5': '0f4db80166073a1f1d4bb92f723a8cf72ce4e41572939fa279071a93b5ec46e3',
    'c8-5 text': 'c969fdd5fbf2305852ee4b78acdb2221543a8bdd4535b6b0798ecb80522aaf96',
    'c8-6': 'd0c0ced67a905e375d22bad060d0185cdfbde9dc55ee217609615961788089ad',
    'c8-6 text': 'b47584828d079347cdf051f343575ae5d13e3180810dac2dd1722969e15fca96',
    'c8-7': 'b24df9dbee1ac77aeae79ef19a2fc520fea3f3afc50e030d904642400177d771',
    'c8-7 text': '9206b739d9c701812c510a0349244d75e3c48d3a840e79bcccb3302ace96e566',
    'c8-8': 'd2b28b5cdb5775c360ea7945ee8dea734b43088f3582186d46e17d8cfb55ca43',
    'c8-8 text': '5a61143263bb1b334cdd49c8eb7f20bba7f291c6f4614877a61fc8da9bee9cd6',
    'c8-9': '97d578e16306e48156d62fcd0b40e32fc526fb64395eb3cf90f97b38cb459017',
    'c8-9 text': '5966e2e922029bc400335ce431343799a071e993595ea26e782d09d6bf18e74d',
    'c8-10': 'fac3a19da08808cd26ce1de4de579240456347957901930a48ad1a61b66eb70b',
    'c8-10 text': 'c9cf0526ca3bd64b6390916ee7864d41757c2880103712910eb4cd4227532496',
    'c8-11': '5f856c527b4f1245f6c12a38cc5f8d88b560eb8413686f351e97c41678c8af18',
    'c8-11 text': 'cb745c53605915585cc9b74e3a1c87fbd7b4609576f7930cc25778847349cd9e',
    'mso-corpus-0': '3012a29e85e49dc5f9c93147decad26af1edd8c54022e487a3845427b0762c44',
    'mso-corpus-0 text': '001c99bad1a3dc2376b4b9f7f75933a0609f215c12d0b3be03f653cd629bf6ad',
    'mso-corpus-1': '1fb8c3c9e8442e3fa35387c1dcfceb93d55a3e914d639a5f37d092f3244703e7',
    'mso-corpus-1 text': 'd62fed4e54abcb95828e73e4f1c134f4687dbcca08cba94180a7496fc51cb3b2',
    'mso-corpus-2': '7577715ebb23b759e5e884f17cd3c336265e16dccd8b7a7ef1a280c8425c7088',
    'mso-corpus-2 text': 'ea804dcc89d64e94ef0ed6d02ebe27dc939bf4f9e36ec7c05db4430e448ff00f',
    'mso-corpus-3': 'f1d5c2e472e0410d2487a9209f9fe142ec5997d92d2a15448f718d4523293912',
    'mso-corpus-3 text': '60cffa85b1b18b50577eee4bd4ed0195e6e9580ed2529c02892b67d01d5bc29d',
    'mso-corpus-4': '0727343f5d416cba60f6e45e0f0a470895c6f8c20ad636e2b652006e31184b8c',
    'mso-corpus-4 text': '645d65df689023bde52e89498ea5738019ef5f66866e4619f4b20c78bf726195',
    'mso-corpus-5': '6a2309b6b0fff43eae2bc833aeb505274b71815cbc885fdda680da31eff0f529',
    'mso-corpus-5 text': '85abee72adaf888e64d02e1b40c1f222a49cf3a7a9ec6f9724774fd6ac3e3b48',
    'mso-corpus-6': 'd0c0ced67a905e375d22bad060d0185cdfbde9dc55ee217609615961788089ad',
    'mso-corpus-6 text': 'b47584828d079347cdf051f343575ae5d13e3180810dac2dd1722969e15fca96',
    'mso-corpus-7': '0f4db80166073a1f1d4bb92f723a8cf72ce4e41572939fa279071a93b5ec46e3',
    'mso-corpus-7 text': 'c969fdd5fbf2305852ee4b78acdb2221543a8bdd4535b6b0798ecb80522aaf96',
    'mso-corpus-8': 'b24df9dbee1ac77aeae79ef19a2fc520fea3f3afc50e030d904642400177d771',
    'mso-corpus-8 text': '9206b739d9c701812c510a0349244d75e3c48d3a840e79bcccb3302ace96e566',
    'mso-corpus-9': '97d578e16306e48156d62fcd0b40e32fc526fb64395eb3cf90f97b38cb459017',
    'mso-corpus-9 text': '5966e2e922029bc400335ce431343799a071e993595ea26e782d09d6bf18e74d',
    'mso-corpus-10': 'c420e6ee8ce3152a1f67b771c00fad6547382cd6bdc29df583fa6c148267d8af',
    'mso-corpus-10 text': '32f5de547af5dc94e324a998d1744946b6e15a9460abecf47d705dd5a9a98dbe',
    'mso-corpus-11': 'fac3a19da08808cd26ce1de4de579240456347957901930a48ad1a61b66eb70b',
    'mso-corpus-11 text': 'c9cf0526ca3bd64b6390916ee7864d41757c2880103712910eb4cd4227532496',
    'hash-seed': 'c07810553b0fc76e4b5cc9b88c1ec8bcadb02f8fd679988cd6b1b98a38343d07',
    'hash-seed text': '0371a7821e188aeefe599b2df71912ae8b067aba646150edeabd25b155a8f384',
    'exists2 X. true': '0183805f1c675cf64f3a59a0207441be29b2671d06d1ff6fe914b99b59c3265e',
    'exists2 X. true text': '112dbba748a67e65973dfd6f0c81bf4290119eba490515e47c2400f5b021c436',
}


@pytest.mark.parametrize("name,r", list(gamma_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_gamma_dfa_digest(name, r):
    dfa, steps = r.gamma_dfa()
    assert automaton_digest(dfa) == GAMMA_DIGESTS[name]
    # the step table lists exactly the DFA's transitions, rows in product order
    rows = list(itertools.product((0, 1), repeat=len(dfa.alphabet.tracks)))
    listed = [(p, (a, bits), q) for a, table in steps.items()
              for p, succ in enumerate(table) for bits, q in zip(rows, succ, strict=True)]
    assert sorted(listed) == sorted(dfa.transitions)


@pytest.mark.parametrize("name,formula,sig,base", list(compile_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_mso_compile_digest(name, formula, sig, base):
    assert automaton_digest(mso_compile(formula, sig, base)) == COMPILE_DIGESTS[name]
    assert _sha(format_automaton(mso_compile(formula, sig, base))) == COMPILE_DIGESTS[name + " text"]


def test_readme_mso_compile_example(capsys):
    assert cli.main(["mso-compile", "first(x) & last(x)", "--signature", "x", "--alphabet", "a"]) == 0
    assert capsys.readouterr().out == (
        "alphabet: a\n"
        "tracks: x\n"
        "states: s0 s1\n"
        "initial: s0\n"
        "final: s1\n"
        "s0 -- a[1] --> s1\n")
