"""Small English inflection lexicon used by the string-matching metrics.

Regular suffix rules (-ed, -s/-es, -ies, -ing) plus an irregular-verb table;
user lexicons loaded from TSV merge over the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import split_lines

# lemma: (simple past, past participle)
_IRREGULAR_VERBS = {
    "arise": ("arose", "arisen"), "awake": ("awoke", "awoken"),
    "be": ("was", "been"), "bear": ("bore", "borne"), "beat": ("beat", "beaten"),
    "become": ("became", "become"), "befall": ("befell", "befallen"),
    "begin": ("began", "begun"), "behold": ("beheld", "beheld"),
    "bend": ("bent", "bent"), "beset": ("beset", "beset"), "bet": ("bet", "bet"),
    "bid": ("bid", "bid"), "bind": ("bound", "bound"), "bite": ("bit", "bitten"),
    "bleed": ("bled", "bled"), "blow": ("blew", "blown"),
    "break": ("broke", "broken"), "breed": ("bred", "bred"),
    "bring": ("brought", "brought"), "broadcast": ("broadcast", "broadcast"),
    "build": ("built", "built"), "burn": ("burnt", "burnt"),
    "burst": ("burst", "burst"), "buy": ("bought", "bought"),
    "cast": ("cast", "cast"), "catch": ("caught", "caught"),
    "choose": ("chose", "chosen"), "cling": ("clung", "clung"),
    "come": ("came", "come"), "cost": ("cost", "cost"),
    "creep": ("crept", "crept"), "cut": ("cut", "cut"),
    "deal": ("dealt", "dealt"), "dig": ("dug", "dug"), "dive": ("dove", "dived"),
    "do": ("did", "done"), "draw": ("drew", "drawn"),
    "dream": ("dreamt", "dreamt"), "drink": ("drank", "drunk"),
    "drive": ("drove", "driven"), "dwell": ("dwelt", "dwelt"),
    "eat": ("ate", "eaten"), "fall": ("fell", "fallen"), "feed": ("fed", "fed"),
    "feel": ("felt", "felt"), "fight": ("fought", "fought"),
    "find": ("found", "found"), "fit": ("fit", "fit"), "flee": ("fled", "fled"),
    "fling": ("flung", "flung"), "fly": ("flew", "flown"),
    "forbid": ("forbade", "forbidden"), "forecast": ("forecast", "forecast"),
    "foresee": ("foresaw", "foreseen"), "forget": ("forgot", "forgotten"),
    "forgive": ("forgave", "forgiven"), "forgo": ("forwent", "forgone"),
    "forsake": ("forsook", "forsaken"), "freeze": ("froze", "frozen"),
    "get": ("got", "gotten"), "give": ("gave", "given"), "go": ("went", "gone"),
    "grind": ("ground", "ground"), "grow": ("grew", "grown"),
    "hang": ("hung", "hung"), "have": ("had", "had"), "hear": ("heard", "heard"),
    "hide": ("hid", "hidden"), "hit": ("hit", "hit"), "hold": ("held", "held"),
    "hurt": ("hurt", "hurt"), "input": ("input", "input"),
    "keep": ("kept", "kept"), "kneel": ("knelt", "knelt"),
    "knit": ("knit", "knit"), "know": ("knew", "known"), "lay": ("laid", "laid"),
    "lead": ("led", "led"), "lean": ("leant", "leant"), "leap": ("leapt", "leapt"),
    "learn": ("learnt", "learnt"), "leave": ("left", "left"),
    "lend": ("lent", "lent"), "let": ("let", "let"), "lie": ("lay", "lain"),
    "light": ("lit", "lit"), "lose": ("lost", "lost"), "make": ("made", "made"),
    "mean": ("meant", "meant"), "meet": ("met", "met"),
    "mislead": ("misled", "misled"),
    "misunderstand": ("misunderstood", "misunderstood"),
    "outgrow": ("outgrew", "outgrown"), "overcome": ("overcame", "overcome"),
    "overdo": ("overdid", "overdone"), "overhear": ("overheard", "overheard"),
    "oversleep": ("overslept", "overslept"), "overtake": ("overtook", "overtaken"),
    "overthrow": ("overthrew", "overthrown"), "pay": ("paid", "paid"),
    "plead": ("pled", "pled"), "prove": ("proved", "proven"),
    "put": ("put", "put"), "quit": ("quit", "quit"), "read": ("read", "read"),
    "rebuild": ("rebuilt", "rebuilt"), "repay": ("repaid", "repaid"),
    "rethink": ("rethought", "rethought"), "rewrite": ("rewrote", "rewritten"),
    "rid": ("rid", "rid"), "ride": ("rode", "ridden"), "ring": ("rang", "rung"),
    "rise": ("rose", "risen"), "run": ("ran", "run"), "saw": ("sawed", "sawn"),
    "say": ("said", "said"), "see": ("saw", "seen"), "seek": ("sought", "sought"),
    "sell": ("sold", "sold"), "send": ("sent", "sent"), "set": ("set", "set"),
    "sew": ("sewed", "sewn"), "shake": ("shook", "shaken"),
    "shed": ("shed", "shed"), "shine": ("shone", "shone"),
    "shoot": ("shot", "shot"), "show": ("showed", "shown"),
    "shrink": ("shrank", "shrunk"), "shut": ("shut", "shut"),
    "sing": ("sang", "sung"), "sink": ("sank", "sunk"), "sit": ("sat", "sat"),
    "slay": ("slew", "slain"), "sleep": ("slept", "slept"),
    "slide": ("slid", "slid"), "sling": ("slung", "slung"),
    "slit": ("slit", "slit"), "smell": ("smelt", "smelt"),
    "sow": ("sowed", "sown"), "speak": ("spoke", "spoken"),
    "speed": ("sped", "sped"), "spell": ("spelt", "spelt"),
    "spend": ("spent", "spent"), "spill": ("spilt", "spilt"),
    "spin": ("spun", "spun"), "spit": ("spat", "spat"),
    "split": ("split", "split"), "spoil": ("spoilt", "spoilt"),
    "spread": ("spread", "spread"), "spring": ("sprang", "sprung"),
    "stand": ("stood", "stood"), "steal": ("stole", "stolen"),
    "stick": ("stuck", "stuck"), "sting": ("stung", "stung"),
    "stink": ("stank", "stunk"), "stride": ("strode", "stridden"),
    "strike": ("struck", "struck"), "strive": ("strove", "striven"),
    "swear": ("swore", "sworn"), "sweep": ("swept", "swept"),
    "swell": ("swelled", "swollen"), "swim": ("swam", "swum"),
    "swing": ("swung", "swung"), "take": ("took", "taken"),
    "teach": ("taught", "taught"), "tear": ("tore", "torn"),
    "tell": ("told", "told"), "think": ("thought", "thought"),
    "throw": ("threw", "thrown"), "thrust": ("thrust", "thrust"),
    "tread": ("trod", "trodden"), "undergo": ("underwent", "undergone"),
    "understand": ("understood", "understood"),
    "undertake": ("undertook", "undertaken"), "unwind": ("unwound", "unwound"),
    "upset": ("upset", "upset"), "wake": ("woke", "woken"),
    "wear": ("wore", "worn"), "weave": ("wove", "woven"),
    "wed": ("wed", "wed"), "weep": ("wept", "wept"), "wet": ("wet", "wet"),
    "win": ("won", "won"), "wind": ("wound", "wound"),
    "withdraw": ("withdrew", "withdrawn"), "withhold": ("withheld", "withheld"),
    "withstand": ("withstood", "withstood"), "write": ("wrote", "written"),
}

_IRREGULAR_3SG = {"be": "is", "have": "has"}

_VOWELS = "aeiou"


def _regular_past(lemma: str) -> str:
    if lemma.endswith("e"):
        return lemma + "d"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ied"
    return lemma + "ed"


def _regular_s(lemma: str) -> str:
    if lemma.endswith(("s", "x", "z", "ch", "sh", "o")):
        return lemma + "es"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ies"
    return lemma + "s"


def _regular_ing(lemma: str) -> str:
    if lemma.endswith("ie"):
        return lemma[:-2] + "ying"
    if lemma.endswith("e") and not lemma.endswith("ee") and lemma != "be":
        return lemma[:-1] + "ing"
    return lemma + "ing"


@dataclass(frozen=True)
class InflectionLexicon:
    """Irregular forms over defaults of regular suffix rules.

    All generators are total over lowercase alphabetic lemmas; the regular
    rules apply whenever no irregular entry exists.
    """

    irregular_past: dict[str, str] = field(default_factory=dict)
    irregular_3sg: dict[str, str] = field(default_factory=dict)
    irregular_participle: dict[str, str] = field(default_factory=dict)

    def past_forms(self, lemma: str) -> set[str]:
        lemma = lemma.lower()
        if lemma == "be":
            return {"was", "were", "been"}
        forms = {self.irregular_past.get(lemma, _regular_past(lemma))}
        participle = self.irregular_participle.get(lemma)
        if participle:
            forms.add(participle)
        return forms

    def third_sg(self, lemma: str) -> str:
        lemma = lemma.lower()
        return self.irregular_3sg.get(lemma, _regular_s(lemma))

    def present_forms(self, lemma: str, person: int, number: str) -> set[str]:
        """Present-tense forms consistent with a (person, number) subject."""
        lemma = lemma.lower()
        if lemma == "be":
            return {"is"} if (person, number) == (3, "SG") else {"am", "are", "be"}
        if (person, number) == (3, "SG"):
            return {self.third_sg(lemma)}
        return {lemma}

    def gerund(self, lemma: str) -> str:
        return _regular_ing(lemma.lower())

    def verb_forms(self, lemma: str) -> set[str]:
        """Every form verb matching accepts: lemma, -s form, past forms."""
        lemma = lemma.lower()
        forms = {lemma, self.third_sg(lemma)}
        forms.update(self.past_forms(lemma))
        if lemma == "be":
            forms.update({"am", "are", "is"})
        return forms

    def noun_forms(self, lemma: str) -> set[str]:
        lemma = lemma.lower()
        return {lemma, _regular_s(lemma)}


def default_lexicon() -> InflectionLexicon:
    return InflectionLexicon(
        irregular_past={k: v[0] for k, v in _IRREGULAR_VERBS.items()},
        irregular_3sg=dict(_IRREGULAR_3SG),
        irregular_participle={k: v[1] for k, v in _IRREGULAR_VERBS.items()},
    )


def load_lexicon(text: str) -> InflectionLexicon:
    """Parse ``lemma<TAB>past[<TAB>participle[<TAB>3sg]]`` rows and merge
    them over the built-in irregular tables."""
    base = default_lexicon()
    past = dict(base.irregular_past)
    third = dict(base.irregular_3sg)
    participle = dict(base.irregular_participle)
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ValueError(f"lexicon line {lineno}: expected lemma<TAB>past")
        lemma = fields[0].strip().lower()
        past[lemma] = fields[1].strip().lower()
        if len(fields) > 2 and fields[2].strip():
            participle[lemma] = fields[2].strip().lower()
        if len(fields) > 3 and fields[3].strip():
            third[lemma] = fields[3].strip().lower()
    return InflectionLexicon(
        irregular_past=past, irregular_3sg=third, irregular_participle=participle
    )
