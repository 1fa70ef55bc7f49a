"""Session set-up shared by every test module.

On a failing `@given` test, hypothesis' pytest plugin imports
`hypothesis.extra._patching`, which imports libcst where it is installed;
with mypy_extensions 1.1 that import raises a DeprecationWarning. Under
`filterwarnings = ["error"]` the warning escapes the plugin's report hook
as an error, pytest stops with INTERNALERROR, and every later test goes
unrun. Importing the module once here, with that warning ignored, leaves
the plugin's import a cache hit.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
