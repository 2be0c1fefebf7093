"""Frozen specification of the transcript quality-filter + scrub pipeline.

Single source of truth for thresholds, stopwords, scrub rules and the
language-model seed corpora.  BOTH implementations consume these constants:

- the distributed Ray Data pipeline (``hooqu_ray.pipelines.transcripts``)
- the independent single-process pandas+re reference implementation used as
  the oracle in tests (``tests/reference_impl.py``)

so that per-turn keep/drop labels and scrubbed text can be compared
byte-for-byte (north_rule: F1 ≥ 0.99; ours targets exactly 1.0).

Rule semantics (a turn is KEPT iff every rule passes, then conversation-level
rules may still drop it):

  non_empty        text is not null and has ≥ MIN_CHARS characters
  word_count       MIN_WORDS ≤ #whitespace-words ≤ MAX_WORDS
  mean_word_len    MIN_MEAN_WORD_LEN ≤ mean word length ≤ MAX_MEAN_WORD_LEN
  symbol_ratio     non-alphanumeric-non-space chars / chars ≤ MAX_SYMBOL_RATIO
  repetition       duplicate word-2gram fraction ≤ MAX_DUP_2GRAM_FRACTION
  stopword         stopword fraction ≥ MIN_STOPWORD_RATIO (when ≥ STOPWORD_MIN_WORDS words)
  language         char-trigram language id == "en"
  perplexity       char-bigram English perplexity ≤ MAX_PERPLEXITY
  toxicity         no word from TOXIC_WORDS

Conversation-level (over the per-turn keeps of a conv_id):
  conv_min_kept        ≥ CONV_MIN_KEPT_TURNS turns kept
  conv_kept_fraction   kept/total ≥ CONV_MIN_KEPT_FRACTION

Scrub (applied to every turn's text, independent of keep):
  1. EMAIL pattern        → "[EMAIL]"
  2. CREDITCARD pattern   → "[CC]"
  3. TOXIC_WORDS          → "[TOX]"
in exactly this order, Python ``re`` semantics, global substitution.
"""

from __future__ import annotations

import re

from ..patterns import CREDITCARD, EMAIL  # noqa: F401  (re-exported for scrub)

MIN_CHARS = 10
MIN_WORDS = 3
MAX_WORDS = 1000
MIN_MEAN_WORD_LEN = 2.0
MAX_MEAN_WORD_LEN = 12.0
MAX_SYMBOL_RATIO = 0.30
MAX_DUP_2GRAM_FRACTION = 0.50
MIN_STOPWORD_RATIO = 0.05
STOPWORD_MIN_WORDS = 5
MAX_PERPLEXITY = 45.0
CONV_MIN_KEPT_TURNS = 2
CONV_MIN_KEPT_FRACTION = 0.25

STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the to
    was were will with we you your i this our they their not or if then than
    there here so do did done can could should would about into over under
    please thanks thank"""
    .split()
)

TOXIC_WORDS = ("frakking", "dangblast", "scuzzbucket")
TOXIC_RE = re.compile(r"\b(?:%s)\b" % "|".join(TOXIC_WORDS), re.IGNORECASE)

EMAIL_TOKEN = "[EMAIL]"
CC_TOKEN = "[CC]"
TOX_TOKEN = "[TOX]"

# languages scored by the trigram model; the filter keeps only "en"
LANGS = ("en", "de", "fr")

# Seed corpora for the deterministic char-ngram models (stand-ins for
# fastText lid.176 / KenLM binaries, which this sandbox cannot download;
# the Ray-side plumbing — per-batch task scoring — is identical).
LM_CORPUS_EN = """
the quick brown fox jumps over the lazy dog near the river bank we reviewed
the quarterly report and found that the numbers were consistent please
summarize the document and highlight the three main findings the model was
trained on a large corpus of publicly available text thank you for the update
the deployment finished without any errors could you explain how the streaming
executor schedules the work queue here is the function you asked for with
comments explaining each step the weather station recorded unusually high
temperatures this spring our team will meet on thursday to discuss the new
data pipeline design i checked the logs and the job completed in about seven
minutes a small language model can still capture the shape of english text
reading and writing are complementary skills that reinforce each other
the invoice total was 1234 dollars and 56 cents paid on 2024 01 31 at noon
call 555 0100 or visit https://example.com/docs?id=42 for more information
my reference number is 9876 5432 1098 7654 and the code is 0123
"""

LM_CORPUS_DE = """
der schnelle braune fuchs springt über den faulen hund am flussufer wir haben
den bericht geprüft und die zahlen waren durchweg konsistent bitte fassen sie
das dokument zusammen und nennen sie die wichtigsten ergebnisse das modell
wurde mit einem großen öffentlichen textkorpus trainiert vielen dank für die
rückmeldung die bereitstellung war fehlerfrei und schnell das wetter war in
diesem frühling ungewöhnlich warm unser team trifft sich am donnerstag um das
neue design der datenpipeline zu besprechen ich habe die protokolle geprüft
"""

LM_CORPUS_FR = """
le rapide renard brun saute par dessus le chien paresseux au bord de la
rivière nous avons examiné le rapport trimestriel et les chiffres étaient
cohérents veuillez résumer le document et souligner les trois conclusions
principales le modèle a été entraîné sur un grand corpus de textes publics
merci pour la mise à jour le déploiement s'est terminé sans erreur la station
météo a enregistré des températures inhabituellement élevées ce printemps
notre équipe se réunira jeudi pour discuter de la nouvelle conception
"""

LM_CORPORA = {"en": LM_CORPUS_EN, "de": LM_CORPUS_DE, "fr": LM_CORPUS_FR}

# model hyper-parameters (shared by engine and oracle)
N_CHAR_BUCKETS = 128          # ascii; bytes ≥ 128 fold into bucket 127
TRIGRAM_BUCKETS = 4096
BIGRAM_SMOOTHING = 0.5
TRIGRAM_SMOOTHING = 0.5


def spec_fingerprint() -> str:
    """Hash of every rule threshold + model corpus: checkpoint lineage uses
    it so a spec change invalidates committed partitions."""
    import hashlib

    payload = repr(
        (
            MIN_CHARS, MIN_WORDS, MAX_WORDS, MIN_MEAN_WORD_LEN, MAX_MEAN_WORD_LEN,
            MAX_SYMBOL_RATIO, MAX_DUP_2GRAM_FRACTION, MIN_STOPWORD_RATIO,
            STOPWORD_MIN_WORDS, MAX_PERPLEXITY, CONV_MIN_KEPT_TURNS,
            CONV_MIN_KEPT_FRACTION, sorted(STOPWORDS), TOXIC_WORDS, LANGS,
            LM_CORPUS_EN, LM_CORPUS_DE, LM_CORPUS_FR,
            N_CHAR_BUCKETS, TRIGRAM_BUCKETS, BIGRAM_SMOOTHING, TRIGRAM_SMOOTHING,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def char_bucket(byte: int) -> int:
    return byte if byte < 128 else 127


def trigram_bucket(c0: int, c1: int, c2: int) -> int:
    return ((c0 * 31 + c1) * 31 + c2) % TRIGRAM_BUCKETS
