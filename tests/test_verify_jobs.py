"""verify's parallel path: the criteria are packed into cost-balanced shards,
one forked child runs each shard, and a child that dies fails the criteria
of its shard instead of the run."""

import os
import signal

import pytest

from maxface import verify as verify_mod

IDS = [3, 7, 8, 12]


def _rows(ids, jobs):
    rows = verify_mod.run_all(ids=ids, jobs=jobs)["criteria"]
    for row in rows:
        row.pop("runtime_s")
    return rows


@pytest.fixture(scope="module")
def serial_rows():
    return _rows(IDS, 1)


@pytest.mark.parametrize("jobs", [2, 3])
def test_forked_shards_match_serial(jobs, serial_rows):
    assert _rows(IDS, jobs) == serial_rows
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_criterion_has_a_cost():
    assert set(verify_mod.COST_MS) == set(verify_mod.CRITERIA)


@pytest.mark.parametrize("ids", [
    list(range(1, 13)), IDS, [9, 10, 12], [1, 9, 11], [2, 4], [10, 11, 12],
])
@pytest.mark.parametrize("jobs", [2, 3, 4, 12])
def test_pack_shards_invariants(ids, jobs):
    shards = verify_mod.pack_shards(ids, jobs)
    assert sorted(cid for shard in shards for cid in shard) == sorted(ids)
    assert 0 < len(shards) <= jobs
    assert all(shards)
    desitter = set(ids) & {9, 10, 12}
    holding = [shard for shard in shards if desitter & set(shard)]
    assert len(holding) == (1 if desitter else 0)
    assert all(desitter <= set(shard) for shard in holding)
    assert verify_mod.pack_shards(ids, jobs) == shards


def test_pack_shards_balances_the_full_run():
    """Largest unit first, each to the lightest shard: 154 ms and 153 ms
    on two workers; on three, the de Sitter unit takes a worker of its
    own and the rest split 91 ms to 90 ms."""
    assert sorted(verify_mod.pack_shards(range(1, 13), 2)) == [
        [1, 6, 7, 9, 10, 12], [2, 3, 4, 5, 8, 11]]
    assert sorted(verify_mod.pack_shards(range(1, 13), 3)) == [
        [1, 5, 6, 8, 11], [2, 3, 4, 7], [9, 10, 12]]


def test_dead_worker_fails_its_shard(monkeypatch):
    def die(cfg):
        os._exit(3)

    monkeypatch.setitem(verify_mod.CRITERIA, 7,
                        (verify_mod.CRITERIA[7][0], die))
    out = verify_mod.run_all(ids=[3, 7, 8], jobs=2)
    [dead] = [shard for shard in verify_mod.pack_shards([3, 7, 8], 2)
              if 7 in shard]
    assert [row["id"] for row in out["criteria"]] == [3, 7, 8]
    for row in out["criteria"]:
        if row["id"] in dead:
            assert row["pass"] is False
            assert "status 3" in row["error"]
        else:
            assert row["pass"] is True
    assert out["all_pass"] is False
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("payload, status, reason", [
    (b"", 0, "short payload"),
    (b"\x80\x04\x95", 0, "short payload"),
    (b"", signal.SIGKILL, f"signal {int(signal.SIGKILL)}"),
], ids=["empty", "truncated", "killed"])
def test_short_payload_or_signal_fails_the_shard(payload, status, reason):
    rows = verify_mod._shard_rows([1, 2], payload, status)
    assert [row["id"] for row in rows] == [1, 2]
    assert all(row["pass"] is False and reason in row["error"]
               for row in rows)
