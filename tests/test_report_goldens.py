"""Report goldens: the sha256 of the ``--no-timestamp`` stdout of fast CLI
commands, recorded before the exact lane's duplicate walks were removed (and
the blocks:3/blocks:4 exact-lane reports before that lane moved to runs).

A refactor that must not move a report byte is checked here in tier-1; the
digests change only with a deliberate change of a report, and then the new
digests are recorded with the reason in CHANGES.md.
"""

import hashlib

import pytest

from shiftlab.cli import EXIT_OK, main

HORIZON = ("--n-max", "64", "--window", "16", "--m-grid", "1,2,4", "--no-timestamp")

GOLDENS = [
    (("synthesize", "--blocks", "2", "--no-timestamp"),
     "adba7c3600b8e3d4039db5c443e2f65d46d537d0e13c94770c7f4c7f63faff8b"),
    # the two witness orbits have equal norms, so their CSV tables are equal
    (("density", "--weights", "blocks:2", "--vector", "e:-1", "--format", "csv",
      "--no-timestamp"),
     "4f4dfa5d022c7394e26b62aedd33675f12181bb9c8949404621edbd981ba34cd"),
    (("density", "--weights", "blocks:2", "--vector", "e:1", "--format", "csv",
      "--no-timestamp"),
     "4f4dfa5d022c7394e26b62aedd33675f12181bb9c8949404621edbd981ba34cd"),
    (("density", "--weights", "blocks:2", "--vector", "e:-1", "--format", "json",
      "--no-timestamp"),
     "bf5f3847c5b4d0112ab8905c6b2c2b728e9291c03e79f20c805c0215bca8484d"),
    (("density", "--weights", "blocks:2", "--vector", "e:1", "--format", "json",
      "--no-timestamp"),
     "bbcd0ee427016a6776532e4974b5a64d5e15f097eff2c2e2fa77ca290310ae9b"),
    # the exact-lane reports of the benchmark (blocks:4 defaults as in
    # perfbench/oracle.json), recorded before the lane moved to runs
    (("synthesize", "--blocks", "3", "--no-timestamp"),
     "eec2639eeaa2507c3568fdfe9f4ddce56eb529ee2964cfe2e4f57c3f85c740ee"),
    (("synthesize", "--blocks", "4", "--no-timestamp"),
     "3f2ba86edff33aea4fb987fd958a36d910e8a4eab4ec36e258027b7e6377870f"),
    (("density", "--weights", "blocks:4", "--vector", "e:-1", "--format", "csv",
      "--no-timestamp"),
     "0d30d945ed914ffc18e725eaeb539a356c5afbdef39370a4e81fe515c1b811a0"),
    (("density", "--weights", "blocks:4", "--vector", "e:1", "--format", "csv",
      "--no-timestamp"),
     "0d30d945ed914ffc18e725eaeb539a356c5afbdef39370a4e81fe515c1b811a0"),
    (("density", "--weights", "blocks:4", "--vector", "e:-1", "--format", "json",
      "--no-timestamp"),
     "e64d0448b40370e8605b5cb642903b890211dd663837b2ae07ab5f39bfec0bbb"),
    (("density", "--weights", "blocks:4", "--vector", "e:1", "--format", "json",
      "--no-timestamp"),
     "3491068845101692f3cd1c08ac97ddac0e9814bc4dd8f1a40a5c106a4bd5ec53"),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ae", *HORIZON),
     "80307aac95479f47f3bd49bc5067c814ca4915df7a2a0202b8c11b9ffb905b45"),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "ue", *HORIZON),
     "8c42f0f31f97ab04df26440983fa3ccafe9f173f5758506292e4293854d8071f"),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "hierarchy",
      *HORIZON),
     "161578d05d33927b7e1fa62698f139a5b214d8df33e8a77c6267f365e5fac0a9"),
    (("check", "--space", "lp_Z:2", "--weights", "constant:2", "--criterion", "wellposed",
      *HORIZON),
     "6d0466efb001c14ca4f62d6efceb6060b7908f3267e1f70f904bec09c571913c"),
    (("check", "--space", "c0_Z", "--weights", "blocks:2", "--side", "backward",
      "--criterion", "ae", *HORIZON),
     "d34f025bb34c47fee74d2f764433c5063ab9fe1c7c09900480511aab4e0d568f"),
    (("check", "--space", "c0_Z", "--weights", "blocks:2", "--side", "forward",
      "--criterion", "ue", *HORIZON),
     "8d90d04f7906ad4538fe3b9ac5c348cc9c3f502873ac3c8997748a0234a5475d"),
    (("check", "--space", "c0_Z", "--weights", "blocks:2", "--side", "backward",
      "--criterion", "hierarchy", "--basis-window", "16", *HORIZON),
     "3d260be9a28e677993de8384cfb0379ca295da915624adf61fa3756e278b5048"),
    # the orbit table, a CSV written through the same writer as the density
    # table, and its JSON form
    (("orbit", "--space", "s_Z", "--weights", "constant:1", "--side", "forward",
      "--vector", "e:0", "--n", "-50:50", "--k", "1:3", "--format", "csv", "--no-timestamp"),
     "4f156fe063a35f386882f29ff53b6126785372ebd2f1044edb95d4e3349cd95f"),
    (("orbit", "--space", "s_Z", "--weights", "constant:1", "--side", "forward",
      "--vector", "e:0", "--n", "-50:50", "--k", "1:3", "--format", "json", "--no-timestamp"),
     "cb6f238be91c21830d47e6ffe3cddb3e0592ebad18c4e89603fb7cf911017d04"),
]

# the --weights-out file of synthesize --blocks 2 (its stdout is the first golden)
WEIGHTS_OUT_DIGEST = "651133a8f269eb11124f11c068ffb0ad3adefcc5181a41df3a8d64a5140d9e08"


def _test_id(args) -> str:
    return " ".join(a for a in args if a not in HORIZON)


@pytest.mark.parametrize("args, digest", GOLDENS, ids=[_test_id(a) for a, _ in GOLDENS])
def test_report_digest(capsys, args, digest):
    code = main(list(args))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_weights_out_digest(capsys, tmp_path):
    path = tmp_path / "weights.json"
    code = main(["synthesize", "--blocks", "2", "--no-timestamp", "--weights-out", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WEIGHTS_OUT_DIGEST
