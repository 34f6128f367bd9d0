"""The option defaults and the finding vocabulary that the command line's
parser and the report renderers read. This module imports nothing, so that a
command served from the cache can read them without loading the model."""

DEFAULT_MAX_DEPTH = 12
MODES = ("structural", "cryptographic", "strict")
DEFAULT_OVERLAP_MIN_DAYS = 121
DEFAULT_MAX_VALIDITY_DAYS = 398

# Every finding category with its severity, in report order.
SEVERITY = {
    "valid_after_revocation": "bad",
    "barrier_breach": "bad",
    "bootstrapping": "info",
    "expanded_trust": "info",
    "extended_validity": "info",
    "alternative_paths": "info",
    "multi_algorithm": "info",
    "ownership_change": "info",
    "backdating": "warn",
    "revocation_inconsistency": "warn",
}
CATEGORIES = tuple(SEVERITY)
