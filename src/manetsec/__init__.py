"""manetsec: group-based MANET key management and secure on-demand routing,
with a deterministic simulator and a post-run security auditor."""

# The package binds only its modules, so `manetsec.audit` is the auditor.
# Importing it still loads the whole program: `perfbench` times
# `import manetsec` as the import part of a run's setup.
from . import audit, crypto, group, keymgmt, routing, scenariofile, sim

__version__ = "0.1.0"
