"""Embedded default normalization table.

The format is the one ``loads_table`` parses and the CLI's ``--table`` reads
from a file; ``igt dump-table`` writes this text out for user editing.
"""

DEFAULT_TABLE_TEXT = """\
# Default morpheme-label normalization table.
#
# Sections:
#   [registry]   canonical labels, whitespace-separated
#   [variants]   variant<TAB>canonical(.canonical...)
#   [composites] regex with named groups 'person' and 'number'
#   [analyzer]   analyzer-tag<TAB>canonical(.canonical...)|-<TAB>[verbal]
#                ('-' drops the tag; 'verbal' marks tags whose first label
#                attaches to the lemma with a hyphen)
#   [restore]    analyzer-surface<TAB>restored-root

[registry]
1 2 3 SG PL DU
NOM ACC DAT GEN LOC ABL INS COM VOC
PST PRS FUT AOR PROG PRF PFV IPFV HAB COND OPT IMP EVID RPRT
NMLZ ADV ADJ POSS NPOSS REFL RECP PTCP INF
NEG PASS CAUS ABIL COP Q DEF INDF DET PROP

[variants]
# nominalizer
NML	NMLZ
NOMZ	NMLZ
FNom	NMLZ
NOML	NMLZ
# present tense
PRES	PRS
PR	PRS
pres	PRS
Pres	PRS
PRESENT	PRS
# past tense
PA	PST
Pst	PST
PST	PST
Past	PST
pst	PST
PAST	PST
PT	PST
PTS	PST
REPPAST	PST
PST1S	PST
past	PST
# ablative
Abl	ABL
Abli	ABL
abl	ABL
ABL	ABL
# adverb(ial)
ADVL	ADV
Adv	ADV
# reported past
ReportedPast	RPRT
# progressive
Progr	PROG
Progr.	PROG
PROGR	PROG
Prog	PROG
# number
S	SG
SING	SG
SINGULAR	SG
PLUR	PL
PLURAL	PL
# misc seen in ODIN glosses
Acc	ACC
Nom	NOM
Dat	DAT
Gen	GEN
Loc	LOC
Refl	REFL
Neg	NEG
Fut	FUT
Aor	AOR
Cop	COP
Inf	INF

[composites]
(?P<person>[123])(?P<number>SG|SING|PL|DU|S|P)

[analyzer]
# person/number agreement
A1sg	1.SG
A2sg	2.SG
A3sg	3.SG
A1pl	1.PL
A2pl	2.PL
A3pl	3.SG
# possessive
Pnon	NPOSS
P1sg	1.SG.POSS
P2sg	2.SG.POSS
P3sg	POSS
P1pl	1.PL.POSS
P2pl	2.PL.POSS
P3pl	3.PL.POSS
# case
Nom	NOM
Acc	ACC
Dat	DAT
Gen	GEN
Loc	LOC
Abl	ABL
Ins	INS
# tense / aspect / mood (verbal: first label attaches with a hyphen)
Past	PST	verbal
Narr	EVID	verbal
Prog1	PROG	verbal
Prog2	PROG	verbal
Aor	AOR	verbal
Fut	FUT	verbal
Pres	PRS	verbal
Cond	COND	verbal
Imp	IMP	verbal
Opt	OPT	verbal
# voice / polarity / modality
Neg	NEG
Pass	PASS
Caus	CAUS
Abil	ABIL
# pronouns and participles
Reflex	REFL
NarrPart	EVID.PTCP
AorPart	AOR.PTCP
PresPart	PRS.PTCP
PastPart	PST.PTCP
FutPart	FUT.PTCP
# dropped part-of-speech tags
Prop	-
Noun	-
Verb	-
Adj	-
Adv	-
Punc	-

[restore]
Kadi	Kadin
et	ediyor
"""
