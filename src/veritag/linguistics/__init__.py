"""Tokenization and the linguistic feature groups (N, L, R).

Each public name is imported from its module on first access, so a process
loads only the modules it uses: the tokenizer without the readability
indices."""

from .. import lazy_exports

_EXPORTS = {
    "dictionary": ("CategoryDictionary", "dictionary_scores", "load_dictionary"),
    "readability": ("READABILITY_FEATURES", "readability_features"),
    "tagger": ("PENN_TABLE_TAGS", "RuleTagger", "morphological_features", "pos_tag"),
    "text": ("TokenizedText", "count_syllables", "is_url_token", "tokenize"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
