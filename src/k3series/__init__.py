"""Exact modular-form identities behind curve counting on K3 surfaces.

Everything is computed over the rationals with certified truncation
windows: a result is either exact on its stated window or the library
raises instead of returning a silently wrong coefficient.

Import names from the modules (k3series.series, .modforms, .kkv, .vertex,
.lowgenus, .cli); the package root exports only __version__.
"""

__version__ = "0.1.0"
