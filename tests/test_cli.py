"""The command-line driver: outputs, pipelines, exit codes."""

import json
import subprocess
import sys

import pytest

from conftest import program_path

ITML = [sys.executable, "-m", "itml.cli"]


def itml(*args, stdin=None):
    return subprocess.run(
        ITML + list(args), capture_output=True, text=True, input=stdin)


def test_run_fig_program():
    proc = itml("run", program_path("loop_array.itml"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("val ()")
    for part in ("!s=2", "!i=4", "x=[0,0,2,2]"):
        assert part in proc.stdout


def test_run_raise_program(tmp_path):
    path = tmp_path / "boom.itml"
    path.write_text('raise "boom"')
    proc = itml("run", str(path))
    assert proc.returncode == 0
    assert proc.stdout.strip() == 'exn "boom"'


def test_missing_file_is_exit_2():
    proc = itml("run", "no/such/file.itml")
    assert proc.returncode == 2
    assert proc.stderr


def test_parse_error_is_exit_2(tmp_path):
    path = tmp_path / "bad.itml"
    path.write_text("(1,")
    proc = itml("run", str(path))
    assert proc.returncode == 2


def test_trace_then_fwd_round_trip(tmp_path):
    src = tmp_path / "prog.itml"
    src.write_text("let x = ref 1 in x := 2")
    trace = tmp_path / "prog.trace"
    proc = itml("trace", str(src), str(trace))
    assert proc.returncode == 0

    # full program + its own trace reproduces the recorded outputs
    proc = itml("fwd", str(src), str(trace))
    assert proc.returncode == 0
    assert "val ()" in proc.stdout
    assert "#0 = 2" in proc.stdout

    # holing the literal holes the dependent cell
    holed = tmp_path / "holed.itml"
    holed.write_text("let x = ref 1 in x := _")
    proc = itml("fwd", str(holed), str(trace))
    assert proc.returncode == 0
    assert "val ()" in proc.stdout
    assert "#0 = 2" not in proc.stdout


def test_trace_to_unwritable_path_is_exit_2(tmp_path):
    src = tmp_path / "prog.itml"
    src.write_text("return 1")
    proc = itml("trace", str(src), str(tmp_path / "nodir" / "out.trace"))
    assert proc.returncode == 2


def test_fwd_shape_mismatch_is_exit_3(tmp_path):
    src = tmp_path / "prog.itml"
    src.write_text("let x = ref 1 in x := 2")
    trace = tmp_path / "prog.trace"
    itml("trace", str(src), str(trace))
    other = tmp_path / "other.itml"
    other.write_text("return 5")
    proc = itml("fwd", str(other), str(trace))
    assert proc.returncode == 3


def test_fwd_element_write_to_a_scalar_is_exit_3(tmp_path):
    # the dump writes element 0 of #0, which the program made a scalar
    src = tmp_path / "prog.itml"
    src.write_text("let r = ref 1 in r[0] <- 5")
    trace = tmp_path / "prog.trace"
    trace.write_text("(let-s r (ref #0 1) (arr-set (var r) 0 #0 0 5))")
    proc = itml("fwd", str(src), str(trace))
    assert proc.returncode == 3
    assert "program does not fit the trace" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fwd_truncated_dump_is_exit_2(tmp_path):
    src = tmp_path / "prog.itml"
    src.write_text("let x = ref 1 in x := 2")
    trace = tmp_path / "prog.trace"
    itml("trace", str(src), str(trace))
    text = trace.read_text()
    trace.write_text(text[:len(text) // 2])
    proc = itml("fwd", str(src), str(trace))
    assert proc.returncode == 2
    assert "bad trace file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_slice_empty_criterion_shades_all(tmp_path):
    src = tmp_path / "prog.itml"
    text = "let x = ref 1 in x := 2"
    src.write_text(text)
    proc = itml("slice", str(src), "")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"⟦{text}⟧"


def test_slice_bad_criterion_is_exit_1(tmp_path):
    src = tmp_path / "prog.itml"
    src.write_text("let x = ref 1 in x := 2")
    proc = itml("slice", str(src), "result = val 9")
    assert proc.returncode == 1
    proc = itml("slice", str(src), "!nope = 1")
    assert proc.returncode == 1


def test_slice_json_format():
    proc = itml("slice", program_path("loop_array.itml"), "!s = 2", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    shaded_texts = [r["text"] for r in data["shaded"]]
    assert shaded_texts == ["1", "3", "x[!i + 1] <- !s"]
    assert data["trace_holes"] > 0


def test_oracle_command():
    proc = itml("oracle", "--seeds", "5", "--format", "json")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"seeds": 5, "failures": 0}
    for rec in lines[:-1]:
        assert rec["ok"]
        assert {"adjunction", "minimality", "meet", "join"} <= set(rec["checks"])


def test_oracle_above_the_corpus_cap(capsys):
    # seed 243 generates `let v1 = array(1, 2) in let v2 = v1[0] in return v1`
    from itml.cli import main
    assert main(["oracle", "--seeds", "1", "--seed-base", "243", "--budget", "8",
                 "--cap", "20000"]) == 0
    assert "0 failures" in capsys.readouterr().out


def test_step_limit_env_var(tmp_path):
    src = tmp_path / "loop.itml"
    src.write_text("let f = rec f x => f x in f 0")
    import os
    env = dict(os.environ, ITML_STEP_LIMIT="50")
    proc = subprocess.run(
        ITML + ["run", str(src)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "recursion limit" in proc.stderr


def test_repl_session():
    script = "\n".join([
        ":load " + program_path("loop_array.itml"),
        ":run",
        ":slice !s = 2",
        ":fwd " + program_path("loop_array.itml"),
        "return 1 + 1",
        ":quit",
    ]) + "\n"
    proc = itml("repl", stdin=script)
    assert proc.returncode == 0
    assert "val ()" in proc.stdout
    assert "⟦" in proc.stdout
    assert "= [0,0,2,2]" in proc.stdout  # :fwd on the full program replays
    assert "val 2" in proc.stdout


def test_trace_dump_of_loop_replays(tmp_path):
    trace_file = tmp_path / "loop.trace"
    proc = itml("trace", program_path("loop_array.itml"), str(trace_file))
    assert proc.returncode == 0
    proc = itml("fwd", program_path("loop_array.itml"), str(trace_file))
    assert proc.returncode == 0
    assert "val ()" in proc.stdout
    assert "= [0,0,2,2]" in proc.stdout
    assert "= 4" in proc.stdout and "= 2" in proc.stdout
