"""The router CLI hands every server flag to its spawned shards.

``python -m repro.server.router`` owns only its routing flags; anything
else is a ``python -m repro.server`` flag, checked with the server's own
parser and passed verbatim to each shard. Nothing here spawns a process.
"""

from __future__ import annotations

import sys

import pytest

from repro.server import router
from repro.server.router import ShardFleet, ShardSpec, parse_cli

pytestmark = pytest.mark.server


def test_shard_command_carries_every_server_flag():
    args, shard_args = parse_cli(
        ["--shards", "2", "--strategy", "refine", "--cache-size", "8"]
    )
    assert args.shards == 2
    fleet = ShardFleet(args.shards, shard_args=shard_args)
    spec = ShardSpec("127.0.0.1", 9001)
    assert fleet._command(spec) == [
        sys.executable, "-m", "repro.server",
        "--host", "127.0.0.1", "--port", "9001",
        "--strategy", "refine", "--cache-size", "8",
        "--drain-timeout", "10.0",
    ]


def test_drain_timeout_reaches_the_shards():
    args, shard_args = parse_cli(["--shards", "1", "--drain-timeout", "4"])
    assert args.drain_timeout == 4.0
    assert shard_args == ["--drain-timeout", "4.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--shards", "2", "--bogus-flag"],
        ["--shards", "2", "--strategy", "cegar"],
        ["--shards", "2", "--workers", "0"],
        ["--attach", "127.0.0.1:1", "--workers", "2"],
    ],
)
def test_bad_shard_flag_exits_2_before_spawning(argv, monkeypatch):
    def no_spawn(*args, **kwargs):
        raise AssertionError("a shard was spawned")

    monkeypatch.setattr(router.subprocess, "Popen", no_spawn)
    try:
        code = router.main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags and choices
        code = exc.code
    assert code == 2
