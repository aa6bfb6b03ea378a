"""The kernel backends the differential suites hold to the frozen references.

Each differential test runs its case through every backend built on this
machine -- ``numpy`` always, ``c`` where its library compiles -- so a test
keeps one id whichever backends ran; the ``c``-only tests in
``tests/test_c_backend.py`` skip, with the reason, where it is missing.
"""

from repro.kernels import available_backends, make_kernels


def kernel_backends():
    """A fresh instance of every kernel backend available here."""
    return [make_kernels(name, warn=False)
            for name, usable in available_backends().items() if usable]
