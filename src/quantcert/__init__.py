"""quantcert: exact certificates for quantum mapping-class-group data.

Submodules, each imported only when a caller imports it, so a request loads
what its subcommand needs (numpy only with ``burau`` or a Perron solve):
  roots      twist eigenvalues as exponents of zeta_2p, the residue-sign
             rule, and the (order, exponent) pair naming a root of unity
  blocks     color palettes, admissible colorings, block dimensions on
             trivalent graphs
  hermitian  diagonal signs and signature of the invariant Hermitian form
             on the 5-dimensional block
  burau      braid-generator matrices on exact cyclotomic coefficient
             arrays (their one representation; the generator contract
             is proved once, at import), the order of -q and the
             finite-closure probe
  certify    per-level infiniteness certificates (odd and even routes),
             decided on exponents mod 2p; certify_level returns each
             level's report record and its provenance notes
  veech      configuration graphs, Perron data, the exact recessive /
             critical / dominant class, multitwist matrices and flat
             surfaces; lattice_certificate and flat_surface_json (JSON
             text) return the report's class fields and rectangle list
  orbits     simple-closed-curve orbit counts and degree-2 cohomology
             bounds; orbit_types (side pairs) or orbit_list_json (JSON
             text) and h2_bounds return the report's orbit list and h2 record
  grammar    the numerals and key=value sections every parser reads
  cli        the quantcert command-line tool, which assembles those
             records into one report per request (a certify report is
             written as text from one template per route and format)
"""

__version__ = "0.1.0"
