"""Exception hierarchy for the GNF control plane."""

from __future__ import annotations


class GNFError(RuntimeError):
    """Base class for every GNF control-plane error."""


class UnknownAgentError(GNFError):
    """The Manager was asked about a station it has no Agent for."""


class UnknownClientError(GNFError):
    """The Manager was asked about a client it has never seen."""


class UnknownAssignmentError(GNFError):
    """Operation on an NF assignment that does not exist."""


class DeploymentError(GNFError):
    """An NF (or chain) could not be deployed on a station."""


class MigrationError(GNFError):
    """An NF migration could not be carried out."""


class CatalogError(GNFError):
    """The NF repository has no entry for the requested function type."""


class ScheduleError(GNFError):
    """An invalid time schedule was supplied."""


class ScenarioSpecError(ValueError):
    """A scenario spec or a deployment config (``TestbedConfig``) failed validation."""
