"""The package namespace: `import figlex` loads no submodule, and each public
name and submodule resolves on first attribute access.

Each check runs in a child process, so no module this test session has
already imported can make a lazy lookup look as if it works.
"""

import json

from conftest import run_python


def child_json(code: str):
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_submodule_resolves_after_a_bare_import():
    assert child_json("import json, figlex; "
                      "print(json.dumps(figlex.stats.jsd([1, 0], [0, 1])))") == 1.0


def test_star_import_binds_each_name_to_its_defining_module_attribute():
    mismatched = child_json(
        "import json, sys, figlex\n"
        "from figlex import *\n"
        "print(json.dumps([name for name in figlex.__all__ if globals()[name] is not "
        "getattr(sys.modules['figlex.' + figlex._EXPORTS[name]], name)]))")
    assert mismatched == []


def test_all_lists_the_public_names_and_dir_lists_all():
    doc = child_json("import json, figlex; "
                     "print(json.dumps({'all': figlex.__all__, 'dir': dir(figlex)}))")
    assert {"TrainParams", "build_matcher", "jsd", "load_corpus", "train_vad_models"} \
        <= set(doc["all"])
    assert set(doc["all"]) <= set(doc["dir"])


def test_unknown_name_raises_attribute_error():
    doc = child_json(
        "import json, figlex\n"
        "try:\n"
        "    figlex.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n")
    assert doc == "module 'figlex' has no attribute 'no_such_name'"


def test_bare_import_loads_no_numpy_and_no_submodule():
    loaded = child_json("import json, sys, figlex; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("figlex")] == ["figlex"]


def test_train_params_is_one_class_under_each_name():
    assert child_json("import json, figlex, figlex.cli, figlex.config, figlex.embeddings; "
                      "print(json.dumps(figlex.TrainParams is figlex.config.TrainParams "
                      "is figlex.embeddings.TrainParams "
                      "and figlex.cli.build_config is figlex.config.build_config))") is True
