"""Load a checkout's plapmem into this process under a name of its own.

    package = load_package(Path("../other-checkout/src"), "plapmem_against")
    with as_plapmem(package):
        ...     # `import plapmem` and `from plapmem.x import y` give package's

Every tool that runs another checkout's code (interleave.py, same_outputs.py,
sample_runs.py) loads it, and this checkout's too, through load_package, so
the two sides run side by side in one process, each on its own modules.
"""

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path


def load_package(src, name):
    """src/plapmem imported afresh as the package `name`, with its
    submodules; sys.modules["plapmem"] is left as it was. An ImportError if
    src holds no plapmem package, or if a module of `name` loads from
    outside src/plapmem."""
    folder = (Path(src) / "plapmem").resolve()
    if not (folder / "__init__.py").is_file():
        raise ImportError(f"no plapmem package in {src}")
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, folder / "__init__.py", submodule_search_locations=[str(folder)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(folder.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    for key, module in sys.modules.items():
        if ((key == name or key.startswith(name + "."))
                and Path(module.__file__).resolve().parent != folder):
            raise ImportError(f"{key} loaded from {module.__file__}, not {folder}")
    return package


@contextlib.contextmanager
def as_plapmem(package):
    """Within the block, `import plapmem...` gives package and its modules."""
    prefix = package.__name__ + "."
    stand_in = {"plapmem": package}
    stand_in.update({"plapmem." + key[len(prefix):]: module
                     for key, module in sys.modules.items() if key.startswith(prefix)})
    saved = {key: sys.modules.get(key) for key in stand_in}
    sys.modules.update(stand_in)
    try:
        yield
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
