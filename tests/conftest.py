"""Set-up shared by every test module."""
import warnings

# Hypothesis imports this module to report a failing example.  It imports
# libcst, which raises a DeprecationWarning on import, and the suite's
# ``error::DeprecationWarning`` filter would turn that into an internal error
# that stops the whole run.  Imported here first with the warning silenced, a
# failing property test stays one failure.  Without libcst hypothesis skips
# the report, and so does this.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
