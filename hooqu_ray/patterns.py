"""PII-style detection patterns (same public sources the reference cites,
``hooqu/patterns.py``):

- EMAIL: the general email regex from http://emailregex.com
- URL: the Stephen Hay variant from https://mathiasbynens.be/demo/url-regex
- CREDITCARD: Visa/MasterCard/AMEX/Diners with space/dash tolerance from
  http://www.richardsramblings.com/regex/credit-card-numbers/.  It uses
  backreferences, which RE2 lacks; ``CREDITCARD_RE2_EXACT`` is the same
  language written without them, ``CREDITCARD_RE2`` a looser detector.
"""

import re

EMAIL = re.compile(
    r"""(?:[a-z0-9!#$%&'*+/=?^_`{|}~-]+(?:\.[a-z0-9!#$%&'*+/=?^_`{|}~-]+)*"""
    r"""|"(?:[\x01-\x08\x0b\x0c\x0e-\x1f\x21\x23-\x5b\x5d-\x7f]|\\[\x01-\x09\x0b\x0c\x0e-\x7f])*")"""
    r"""@(?:(?:[a-z0-9](?:[a-z0-9-]*[a-z0-9])?\.)+[a-z0-9](?:[a-z0-9-]*[a-z0-9])?"""
    r"""|\[(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.){3}"""
    r"""(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?|[a-z0-9-]*[a-z0-9]:"""
    r"""(?:[\x01-\x08\x0b\x0c\x0e-\x1f\x21-\x5a\x53-\x7f]|\\[\x01-\x09\x0b\x0c\x0e-\x7f])+)\])"""
)

URL = re.compile(r"""(https?|ftp)://[^\s/$.?#].[^\s]*""")

CREDITCARD = re.compile(
    r"""\b(?:3[47]\d{2}([\ \-]?)\d{6}\1\d|(?:(?:4\d|5[1-5]|65)\d{2}|6011)([\ \-]?)\d{4}\2\d{4}\2)\d{4}\b"""
)


# Backreference-free CREDITCARD variant for RE2 engines (pyarrow.compute,
# DuckDB): the original pattern's \1/\2 backrefs only enforce that the
# separator is CONSISTENT ("4000 1234-5678 9010" is rejected); this variant
# accepts mixed separators — strictly higher recall, which is the right
# trade for a DETECTION report (the scrub path keeps the strict Python-re
# pattern above for byte parity with the reference).
CREDITCARD_RE2 = (
    r"\b(?:3[47]\d{2}[ \-]?\d{6}[ \-]?\d"
    r"|(?:(?:4\d|5[1-5]|65)\d{2}|6011)(?:[ \-]?\d{4}){2}[ \-]?)\d{4}\b"
)


# Exact RE2 form of CREDITCARD: the backrefs \1/\2 only force ONE separator
# throughout, so each separator (space, dash, none — the greedy order of
# ``[\ \-]?``) becomes its own alternative.  On ASCII text it matches what
# CREDITCARD matches under Python ``re`` (the scrub relies on this).
CREDITCARD_RE2_EXACT = r"\b(?:%s)\d{4}\b" % "|".join(
    r"3[47]\d{2}{sep}\d{6}{sep}\d"
    r"|(?:(?:4\d|5[1-5]|65)\d{2}|6011){sep}\d{4}{sep}\d{4}{sep}".replace("{sep}", sep)
    for sep in (" ", "-", "")
)
