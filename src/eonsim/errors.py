"""Exception types raised across the package.

Every error the library signals deliberately derives from :class:`EonSimError`,
so callers can catch the whole family with one clause; a bad argument to a
model constructor (``Simulator``'s allocator, ``progress_every`` and
``event_listener`` included) or a traffic sampler is a built-in
:class:`ValueError`.
There is one class per failure a caller handles differently.
"""


class EonSimError(Exception):
    """Base class for every error raised by this package."""


# -- slot grids and topology --------------------------------------------------

class OutOfBoundsError(EonSimError):
    """A slot range falls outside a link's grid, or an index outside its range."""


class AlreadyOccupiedError(EonSimError):
    """Attempt to occupy a slot that is already taken."""


class NotOccupiedError(EonSimError):
    """Attempt to release a slot that is already free (double release)."""


class NoSuchLinkError(EonSimError):
    """No directed link exists for the requested endpoints or id."""


# -- allocation context --------------------------------------------------------

class StagedOverlapError(EonSimError):
    """A staged slot range overlaps an earlier staged range on the same link."""


class AllocatorFaultError(EonSimError):
    """An allocation callback violated its contract; the run is aborted.

    E.g. it raised (the ``__cause__``), returned a bad verdict, staged a
    non-``int`` bound, or called ``commit_staged()`` itself.
    """


class CommitConflictError(AllocatorFaultError):
    """A staged range is not free on the live grid at commit time."""


class AuditViolationError(AllocatorFaultError):
    """Strict audit rejected a committed allocation (contiguity/continuity),
    or ``place`` a width the route's reach rules out, audit on or off."""


# -- simulator lifecycle -------------------------------------------------------

class AlreadyInitializedError(EonSimError):
    """init() was called a second time."""


class NotInitializedError(EonSimError):
    """run() was called before init()."""


class InvalidConfigError(EonSimError):
    """The configuration cannot run: a pair of the network without routes, or
    a route that does not run on it as it ran when it was added."""


class RunAbortedError(EonSimError):
    """run() was called again after an earlier run() of the simulator raised."""


# -- input documents -----------------------------------------------------------

class InputError(EonSimError):
    """Base class for problems with input documents."""


class MalformedDocumentError(InputError):
    """The document is not valid JSON."""


class SchemaError(InputError):
    """A required field is missing or has the wrong type; names the path."""


class ValidationError(InputError):
    """The document is well-formed but semantically inconsistent."""
