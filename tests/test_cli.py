"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_PARSE_ERROR, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", '"x"'])
        assert args.iql == '"x"'
        assert args.scale == 0.02
        assert args.limit == 20

    def test_scale_option(self):
        args = build_parser().parse_args(["stats", "--scale", "0.01"])
        assert args.scale == 0.01


@pytest.fixture(scope="module")
def tiny_args():
    # the smallest dataspace the profiles allow, to keep CLI tests quick
    return ["--scale", "0.001", "--seed", "3"]


class TestCommands:
    def test_stats(self, capsys, tiny_args):
        assert main(["stats", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "index sizes" in out
        assert "content" in out

    def test_query_prints_hits(self, capsys, tiny_args):
        assert main(["query", '"database"', *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "result(s)" in out
        assert "fs://" in out or "imap://" in out

    def test_query_limit(self, capsys, tiny_args):
        assert main(["query", '"database"', "--limit", "1", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "-- 1 result(s)" in out
        lines = [l for l in out.splitlines() if not l.startswith("--")]
        assert len(lines) == 1  # the limit streamed exactly one row

    def test_query_explain(self, capsys, tiny_args):
        assert main(["query", '//papers//*.tex', "--explain",
                     *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "ExpandStep" in out

    def test_query_join(self, capsys, tiny_args):
        assert main([
            "query",
            'join( //*[class = "emailmessage"]//*.tex as A, '
            "//papers//*.tex as B, A.name = B.name )",
            *tiny_args,
        ]) == 0
        out = capsys.readouterr().out
        assert "<->" in out

    def test_tables(self, capsys, tiny_args):
        assert main(["tables", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 5" in out
        assert "Table 4" in out

    def test_serve(self, capsys, tiny_args):
        assert main(["serve", "--clients", "1,2", "--requests", "3",
                     "--workers", "2", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "closed-loop service workload" in out
        assert "p99 [ms]" in out
        assert "queries.served" in out

    def test_serve_rejects_bad_client_list(self, capsys, tiny_args):
        assert main(["serve", "--clients", "one,two", *tiny_args]) == 2
        err = capsys.readouterr().err
        assert "invalid --clients" in err


class TestParseErrors:
    def test_parse_error_exit_code(self, capsys, tiny_args):
        assert main(["query", "//[[broken", *tiny_args]) == EXIT_PARSE_ERROR
        captured = capsys.readouterr()
        assert "iql parse error:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1  # one clean line
        assert "Traceback" not in captured.err

    def test_parse_error_in_explain(self, capsys, tiny_args):
        assert main(["query", "//[[broken", "--explain",
                     *tiny_args]) == EXIT_PARSE_ERROR
        assert "iql parse error:" in capsys.readouterr().err


class TestDurabilityCommands:
    def test_checkpoint_then_recover_verify(self, capsys, tmp_path,
                                            tiny_args):
        space = str(tmp_path / "space")
        assert main(["checkpoint", space, *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "synced" in out and "checkpoint at lsn" in out
        assert main(["recover", space, "--verify",
                     "--verify-count", "8"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "engine ≡ reference oracle" in out

    def test_checkpoint_reopens_existing_directory(self, capsys, tmp_path,
                                                   tiny_args):
        space = str(tmp_path / "space")
        assert main(["checkpoint", space, *tiny_args]) == 0
        capsys.readouterr()
        # second run recovers instead of regenerating
        assert main(["checkpoint", space, *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out


class TestFsck:
    def test_fsck_clean_directory_exits_zero(self, capsys, tmp_path,
                                             tiny_args):
        space = str(tmp_path / "space")
        assert main(["checkpoint", space, *tiny_args]) == 0
        capsys.readouterr()
        assert main(["fsck", space, "--verify-count", "8"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "engine ≡ reference oracle" in out

    def test_fsck_rejects_non_durability_directory(self, capsys, tmp_path):
        assert main(["fsck", str(tmp_path)]) == 2
        assert "not a durability directory" in capsys.readouterr().err

    def test_fsck_leaves_the_directory_untouched(self, capsys, tmp_path,
                                                 tiny_args):
        space = tmp_path / "space"
        assert main(["checkpoint", str(space), *tiny_args]) == 0
        before = sorted(p.name for p in space.rglob("*"))
        assert main(["fsck", str(space)]) == 0
        assert sorted(p.name for p in space.rglob("*")) == before


class TestServeSharded:
    def test_serve_sharded_survives_a_sigkill(self, capsys, tmp_path,
                                              tiny_args):
        assert main(["serve", "--shards", "2", "--requests", "2",
                     "--directory", str(tmp_path / "shards"),
                     "--kill-shard", "0", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "supervisor up: 2 shard worker(s)" in out
        assert "SIGKILL shard 0" in out
        assert "shard 0 recovered" in out
        assert "supervised shards" in out


class TestFleetObservability:
    def test_stats_fleet_watch_renders_bounded_frames(self, capsys,
                                                      tiny_args):
        assert main(["stats", "--shards", "2", "--watch", "--frames", "2",
                     "--interval", "0.05", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert out.count("fleet (2 shards)") == 2  # --frames bounded it
        # the per-shard supervision columns
        for column in ("state", "epoch", "restarts", "inflight",
                       "p99 [ms]", "export"):
            assert column in out
        # the merged registry carries federated {shard=N} series
        assert 'query.executions{shard="0"}' in out
        assert 'query.executions{shard="1"}' in out

    def test_stats_fleet_prometheus_is_scrapable(self, capsys, tiny_args):
        from repro.obs.promcheck import parse_samples

        assert main(["stats", "--shards", "1", "--format", "prometheus",
                     *tiny_args]) == 0
        out = capsys.readouterr().out
        samples = parse_samples(out)  # raises on any malformed line
        assert any(labels.get("shard") == "0" for _, labels, _ in samples)

    def test_query_sharded_analyze_prints_stitched_tree(self, capsys,
                                                        tiny_args):
        assert main(["query", '"database"', "--analyze", "--shards", "1",
                     "--tenant", "acme", *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "ShardedQuery" in out
        assert "RingLookup" in out
        assert "Dispatch(epoch=" in out
        assert "result(s) from shard" in out

    def test_query_sharded_routes_and_prints(self, capsys, tiny_args):
        assert main(["query", '"database"', "--shards", "1",
                     *tiny_args]) == 0
        out = capsys.readouterr().out
        assert "result(s) from shard 0 (epoch 1)" in out
