"""maxface: maximal surfaces in Minkowski 3-space from Weierstrass data.

Branched-cover path calculus, period closure for the genus-k family,
wavefront singularity tracing/classification, and the deformation to
CMC-1 faces in de Sitter 3-space with SU(1,1)-certified monodromy.

The numerical modules load on first use: importing the package puts each
of them in ``sys.modules`` and on the package through
``importlib.util.LazyLoader``, and a module's code runs when one of its
attributes is first read.  ``from . import x`` binds the unloaded module.
A module whose code raises is made lazy again, so every later use raises
again.  ``cli`` (run by ``python -m``) and ``errors`` load as usual.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"


class _Rearming:
    """Runs a module's code with the loader it wraps; if the code raises,
    makes the module lazy again, so every later use runs the code again
    (as importlib.reload would) and raises again."""

    def __init__(self, loader):
        self.loader = loader
        self.create_module = loader.create_module

    def exec_module(self, module):
        try:
            self.loader.exec_module(module)
        except BaseException:
            module.__class__ = types.ModuleType
            importlib.util.LazyLoader(self).exec_module(module)
            raise


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_Rearming(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("algebra", "cover", "desitter", "export", "periods", "schema",
              "singularities", "verify", "weierstrass"):
    globals()[_name] = _register_lazy(_name)
del _name
