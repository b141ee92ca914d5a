"""The README's library example runs as written and imports the package
root's whole surface, its command lines parse, and the benchmark records it
and the package cite exist."""

import ast
import glob
import os
import re
import shlex
import time
import types

import cauchyfwi
from cauchyfwi import evaluate_model, relative_l2_error
from cauchyfwi.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def library_example():
    with open(README, encoding="utf-8") as f:
        # the body of the one fenced python block
        (block,) = re.findall(r"^```python\n(.*?)^```$", f.read(), flags=re.S | re.M)
    return block


def test_library_example_runs():
    block = library_example()
    namespace = {}
    t0 = time.perf_counter()
    # a name the block never defines raises NameError here
    exec(compile(block, README, "exec"), namespace)
    elapsed = time.perf_counter() - t0

    result, truth = namespace["result"], namespace["true_field"]
    e_init = relative_l2_error(truth, evaluate_model(namespace["initial"]))
    e_final = relative_l2_error(truth, evaluate_model(result.model))
    assert result.reason == "discrepancy"
    # criterion 6's threshold: the example's simulation set is decoupled
    assert 1 - e_final / e_init >= 0.40
    assert elapsed <= 60.0


def test_library_example_imports_the_whole_package_root():
    (imported,) = [[alias.name for alias in node.names]
                   for node in ast.walk(ast.parse(library_example()))
                   if isinstance(node, ast.ImportFrom) and node.module == "cauchyfwi"]
    assert imported == cauchyfwi.__all__
    # apart from its submodules, the root binds no public name the example
    # does not import
    public = {name for name, value in vars(cauchyfwi).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(imported)


def test_command_line_block_parses():
    with open(README, encoding="utf-8") as f:
        # the fenced block under the "Command line" heading
        (block,) = re.findall(r"^## Command line\n\n```\n(.*?)^```$", f.read(),
                              flags=re.S | re.M)
    parser = build_parser()
    named = set()
    for line in block.replace("\\\n", " ").splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "cauchyfwi"
        # a flag the parser does not know exits with status 2
        named.add(parser.parse_args(argv).command)
    assert named == {"init", "synth", "invert", "gradcheck", "probe", "export"}


def test_cited_benchmark_records_exist():
    sources = [README, *glob.glob(os.path.join(ROOT, "src", "cauchyfwi", "*.py"))]
    cited = set()
    for path in sources:
        with open(path, encoding="utf-8") as f:
            cited.update(re.findall(r"BENCH_\d+\.json", f.read()))
    assert cited, "the README names no benchmark record"
    missing = sorted(name for name in cited if not os.path.isfile(os.path.join(ROOT, name)))
    assert not missing
