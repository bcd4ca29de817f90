"""Exception taxonomy shared across the package."""


class RemlabError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(RemlabError):
    """Topology document is malformed or violates a structural rule."""


class NotFoundError(RemlabError):
    """A named service, pod, link, config key, or handle does not exist."""


class InvalidArgumentError(RemlabError):
    """An operation was called with an out-of-range or malformed argument."""


class InjectionError(RemlabError):
    """Fault injection was rejected (duplicate, bad magnitude, bad target)."""


class LineageError(RemlabError):
    """A failure record does not belong to the given cluster state lineage."""


class SuiteGenerationError(RemlabError):
    """The topology cannot honor the requested suite composition rules."""


class PlaybookParseError(RemlabError):
    """Playbook text could not be parsed into the supported subset."""


class TranscriptExhaustedError(RemlabError):
    """A replay policy was asked to decide beyond its recorded transcript."""


class TransportError(RemlabError):
    """A remote policy endpoint could not be reached after retries."""


class EmptyDatasetError(RemlabError):
    """Harvesting produced no training examples."""


class DivergenceError(RemlabError):
    """A training loss became non-finite."""


class RunError(RemlabError):
    """A benchmark run failed; partial results may have been persisted."""
