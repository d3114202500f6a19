"""Byte-identical CLI output: the sha256 of each command's stdout, as
recorded at commit d54ad6d, before the root-system caches, the shared
coset scan and the check helper were introduced.  The D4 matrix digest
was recorded at commit d0a3339, before the integer gcd kernel; rank 4 is
where the pseudo-remainder coefficients grow the most.  The A4, D4 and A5
fq digests were recorded at commit 71de8a0, before the residue
enumeration of parallelepipeds and the reciprocity form of f_Q replaced
the box scan and the inclusion-exclusion.  The G2 verify and B2 oracle
digests were recorded at commit 5def361, before one scan over the
enumeration replaced the per-(J, K) classification.  The A4 and F4 matrix
digests were recorded at commit f7c20cf, before the series were carried
as integer numerators over one fixed denominator.  The E8 and G2 cartan,
F4 finite check, B3 check, selftest, B3 pmatrix and hmatrix and A2 text
matrix digests were recorded at commit dde3dd5, before the root data and
the identity suites became integer-only.  The B4 check, D4 verify, B4
series, F4 pmatrix and hmatrix and D4 finite poincare digests were
recorded at commit 3744ca8, before sums of polynomial products were
packed into integers and before `finite --what poincare` stopped
building the group table.  The D4 finite check digest was recorded at
commit 0f07b34, before the finite identity suite ran on packed coset
bins.  The B2 and A3 verify and G2 oracle digests were recorded at
commit 21c2ada, before the oracle scan classified each distinct profile
once and read root pairings from precomputed integer rows.  The D4
hmatrix and pmatrix digests were recorded at commit fd59f3f, before the
coset scan visited only the ascent buckets above (J, K).  The D5 and E6
sub-table finite checks, the G2 latex and B3 text matrix and the B3 text
series digests were recorded at commit b7f8476, before one table of
opposition involutions replaced the element products of the subset
conjugations; the text and latex ones also pin the factors that the
denominators are printed with.  The A1 verify and C3 oracle digests were
recorded at commit 29b061e, before the enumeration walk carried each
element's root pairings and moved its generators by root permutations;
rank 1 and a two-generator J are the cases a gather of the simple-root
pairings is easiest to get wrong on.  The F4 text matrix digest was
recorded at commit 0e8b50f, before the heuristic gcd and the exact
division over the divisor's nonzero terms; every trial division of the
denominator factor search runs through that division.  The A6 and E6
fq and A7 series digests were recorded at commit f32cfcb, before the
parallelepiped points were found by a join on residues in place of a
scan of the whole residue box; A6 and A7 have the largest boxes under
the bound.  The A5 matrix and E6 series digests were recorded at commit
c9c60cf, before the pipeline packed its numerators once, at one slot
width per pipeline: rank 5 and the largest |W| give the widest slots.
The JSON forms of the D4 finite poincare, B3 pmatrix and hmatrix and A1
cartan digests were recorded at commit 8e0f882, before the package's
own encoder replaced json.dumps: the poincare form, the coset matrices
and one-entry lists were the JSON shapes no digest covered.
A change that alters any of these bytes must say so and
re-record the digest.  Every command is also run under python -O, in one
subprocess, against the same digests."""

import hashlib
import textwrap

import pytest

from coxgrowth.cli import main
from test_series import _run_python

DIGESTS = [
    ("matrix --type A2 --format json",
     "702b88943ae66244b8489ed399b6d8acf85493ff2fb27e614fa6440c5ddbba02"),
    ("fq --type A2 --format json",
     "2fe337be0ee07d570aa0e6d7910ef868cfc01ba560fb54942d9483aec25cff8d"),
    ("series --type A2 --J 1 --K 2 --expand 10 --format json",
     "5691cc6451da2f08830a3de63b8f9c415dc0b6d7c4661316fae674b9b8b6e822"),
    ("matrix --type B3 --format json",
     "0dcb38df1d29ea78c6017b379d3837e494dffb707764920852c2f9ab762f5870"),
    ("fq --type B3 --format json",
     "2d62a7580515cc0e9b4e09d57f40fffb8c881b47df31ef404a650532e1a3876c"),
    ("series --type B3 --J 1 --K 2 --expand 10 --format json",
     "8f66ac0fdb82cae361ec9d62b3c5dc87d0ee45532d1abe75307432ca09984729"),
    ("matrix --type G2 --format json",
     "056656f6bd8ab0791a006131215514214d60303a0bb162949a8d50d51c5f1c47"),
    ("fq --type G2 --format json",
     "1a8cb33249ce4cf890028cc7d651a8198cd50716fa0a81ec9b16810f3c7be9ec"),
    ("series --type G2 --J 1 --K 2 --expand 10 --format json",
     "7217216e7f5c70fbe73331d6e8f58bebda093312a5596d964959bc49d4a3b8b6"),
    ("finite --type B3 --what check",
     "68d5742cc5a54255b1f8722e28b6e0d09ed78f26c85ed7639aa6fa8b4f8673ca"),
    ("check --type A2",
     "d95b2ec952c7e98586b16c1c97d038a1935643668356b5915f9df25c69951f72"),
    ("matrix --type D4 --format json",
     "5bbb87bd4b7a3fe8518d25f8fdf1d1fd4659f7d7d6bb8d685f57c657f70f8311"),
    ("fq --type A4 --format json",
     "cbb0b65e9b92bd6084040965a22b8855c09e575fd598f68d7793e8d0da433c86"),
    ("fq --type D4 --format json",
     "66b875d2894c1ce4126781e6d44927f279e09c53291a50e996940240461d2f1d"),
    ("fq --type A5 --format json",
     "bba78ed6ca54dee4940cd0b6a6593b20181058b9297e766dbf8567f316aba3b2"),
    ("verify --type G2 --max-length 40",
     "fdf76f13c8ed76ab8655b4fcbd060524f5deddd41f85768ac53d4f25faad2b80"),
    ("oracle --type B2 --J 1 --K 1,2 --max-length 30 --format json",
     "39b6ab5a3b52d9a55ccb8e1e95b9ca95ab75bb42ed6cdfa610f36de6980a4e01"),
    ("matrix --type A4 --format json",
     "e7eed9a0852facf6dd191c98096656d2a618479b29c62e57f3041873f29c257b"),
    ("matrix --type F4 --format json",
     "a72907bcc88dfb755d7c55391b775f5d5087c293dde1fcd68a27083c19dade87"),
    ("cartan E8 --format json",
     "672a372c8bd4f9bf4f9fd569db9434a2cfc47edb0e2e8772e264cdc2ec3b48b2"),
    ("cartan G2",
     "44a309b8763619d7b6e1b4b797cd75796864cb3cccc24ab4d7839b60f7f9634e"),
    ("finite --type F4 --what check",
     "68d5742cc5a54255b1f8722e28b6e0d09ed78f26c85ed7639aa6fa8b4f8673ca"),
    ("check --type B3",
     "d95b2ec952c7e98586b16c1c97d038a1935643668356b5915f9df25c69951f72"),
    ("selftest",
     "bba40956d824e63b40df8941f993b1c941d35d202106d0fc4e909819f43ff6f8"),
    ("finite --type B3 --what pmatrix --K 1",
     "d239521e632afe3761749b31247d88e62e2f9f427b33b40f3fb305745be82e2c"),
    ("finite --type B3 --what hmatrix --J 1",
     "e1c684867fe85ea7687ff06b5d9b3464dc991ab2a54306f25188496669f6ea50"),
    ("matrix --type A2",
     "5d8e82f7a702fe6231b064884f0835541637dfea0336659643f5622d76b4d193"),
    ("check --type B4",
     "d95b2ec952c7e98586b16c1c97d038a1935643668356b5915f9df25c69951f72"),
    ("verify --type D4 --max-length 6",
     "fdf76f13c8ed76ab8655b4fcbd060524f5deddd41f85768ac53d4f25faad2b80"),
    ("series --type B4 --J 1 --K 2 --format json",
     "4813564d5974a8b6a2c79303eaf8e076f841c4a8cbad42ba7673a178612bf81f"),
    ("finite --type F4 --what pmatrix --K 1,2",
     "b0d35b1848f98a1425464fd7d40d5139f9e5ae55eb92228cceecbfd98f10ba33"),
    ("finite --type F4 --what hmatrix --J 3,4",
     "e656021a280cccf4105fa8ef79c7a6cf17d1fade004944d66d63ba701a297dd7"),
    ("finite --type D4",
     "eeefbf531bf4a197042b48e13e8452719a615fef40e999ba5aaf75fe1f5c4169"),
    ("finite --type D4 --what check",
     "68d5742cc5a54255b1f8722e28b6e0d09ed78f26c85ed7639aa6fa8b4f8673ca"),
    ("verify --type B2 --max-length 40",
     "fdf76f13c8ed76ab8655b4fcbd060524f5deddd41f85768ac53d4f25faad2b80"),
    ("verify --type A3 --max-length 12",
     "fdf76f13c8ed76ab8655b4fcbd060524f5deddd41f85768ac53d4f25faad2b80"),
    ("oracle --type G2 --J 1 --K 2 --max-length 40 --format json",
     "2b13becf77331a1468041d9cb51e69fbe55aa0eef20dc956d14f0017581148bd"),
    ("finite --type D4 --what hmatrix --J 1,3,4",
     "ad665ce75286f337fb42feeed8c612329e15cc3e0ca5a2a4d36e0c3fae19088f"),
    ("finite --type D4 --what pmatrix --K 2,3",
     "ccd8cf81cb48fca6db6a43b6f42fa46a91f29bed0846cf763536bf02d454ecc5"),
    ("finite --type D5 --subset 2,3,4,5 --what check",
     "68d5742cc5a54255b1f8722e28b6e0d09ed78f26c85ed7639aa6fa8b4f8673ca"),
    ("finite --type E6 --subset 1,3,4,5 --what check",
     "68d5742cc5a54255b1f8722e28b6e0d09ed78f26c85ed7639aa6fa8b4f8673ca"),
    ("matrix --type G2 --format latex",
     "3a7ec1593852dc600da9ae8edcb2718873ef611a6d6bfc6489ab19ae10765c43"),
    ("matrix --type B3",
     "960a0f05d91d50080f9266f905adee1d575d510b9696980eec1a54d43ab1b90f"),
    ("series --type B3 --J 1 --K 2 --Q 2",
     "4efae559eb232be0a8e8f0725d760f7974368fb2def81e448a5bf3ef16308132"),
    ("verify --type A1 --max-length 60",
     "fdf76f13c8ed76ab8655b4fcbd060524f5deddd41f85768ac53d4f25faad2b80"),
    ("oracle --type C3 --J 1,3 --K 2 --max-length 10 --format json",
     "4878fba33d9af67e4680d4dc090295fbd1638cd6f68af48128e6054ec6f7553a"),
    ("matrix --type F4",
     "33c44ccd0d1d0bfcdfd417df0e29074605d1255c21e421e07969cf4fbb96af4a"),
    ("fq --type A6 --format json",
     "ca54e7588f19cee5fd9d811ad29c02896f4ce3311d0d906b106b77bfb898389d"),
    ("fq --type E6 --format json",
     "a9e5770b5ff35c7e8e5225dac676e2744ebf6be50de42b792e885a1c74074b5b"),
    ("series --type A7 --J 1 --K 2 --format json",
     "a26fff9d4f70f2cc5479ff87fbc2bf758ced768a045d50dca8cf2772a4df1166"),
    ("matrix --type A5 --format json",
     "ade98d1eb98b425b7662e51226cc7dcbce2476243ef55e5493e9d2a05fa3a337"),
    ("series --type E6 --J 1 --K 2 --format json",
     "887a4417bf3e13472a36487f5bf7aa64acd9f577b58afed5f9d6bd7f16fad209"),
    ("finite --type D4 --format json",
     "02246fffed5fbac2e2ac2d4983d3ec30020e1b9fb319517278094b4e4eced104"),
    ("finite --type B3 --what pmatrix --K 1 --format json",
     "5f83b1439753f87d42d70adf6bddc702f44a75511501c54163fb087361f64837"),
    ("finite --type B3 --what hmatrix --J 1 --format json",
     "b94a8afabced28ce638b67bad9d9f29b7de82f28e795967ae427accafbc15c4d"),
    ("cartan A1 --format json",
     "d44d965fdec282e883063d34ee6851bd87e5576568c747d88f346e68162630f3"),
]


@pytest.mark.parametrize("command, digest", DIGESTS,
                         ids=[c for c, _ in DIGESTS])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs each command given on its command line in turn and prints its exit
# code and the sha256 of its stdout.  Exit code 3: asserts were not
# stripped.
_DIGEST_SCRIPT = textwrap.dedent("""
    import contextlib, hashlib, io, sys
    from coxgrowth.cli import main
    if __debug__:
        sys.exit(3)
    for command in sys.argv[1:]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(command.split())
        print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
""")


def test_stdout_digests_under_optimize():
    proc = _run_python(["-O", "-c", _DIGEST_SCRIPT,
                        *(command for command, _ in DIGESTS)], timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"0 {digest}" for _, digest in DIGESTS]
