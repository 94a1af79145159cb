"""Physical constants (SI, CODATA 2022). Fixed, never user-configurable."""

import math

C0 = 299792458.0
EPS0 = 8.8541878188e-12
MU0 = 1.25663706127e-6
# derived, so the set is self-consistent to machine precision
ETA0 = math.sqrt(MU0 / EPS0)

# 1 Np = 20/ln(10) dB = 8.685889638... dB
NP_TO_DB = 20.0 / math.log(10.0)
