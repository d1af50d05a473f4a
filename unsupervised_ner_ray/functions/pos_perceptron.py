"""Trained POS backend for unmarked text: an averaged perceptron tagger.

The reference tags unmarked sentences with an external jPTDP POS service
(/root/reference/main_NER.py:225-230).  This module fills the engine's
``pos_backend`` seam (functions/masking.detect_terms) with a REAL trained
model instead of the closed-class heuristic: a classic averaged-perceptron
POS tagger (the standard public algorithm — greedy left-to-right, per-token
feature vector over word shape / affixes / context, perceptron updates with
weight averaging) trained at first use on the small hand-tagged PTB-style
corpus below.  Training is deterministic (seeded per-epoch shuffle)
and takes ~200 ms; the trained model is cached per process, so the tagging
tasks train it once per worker process, in the cached ``NerTagger``'s
``__init__``, exactly like any other model backend.

Why this beats the heuristic on plain prose: the heuristic can only RESET
closed-class words, so every unknown VERB is tagged NN and glues adjacent
entity spans together ("Imatinib treats leukemia" becomes ONE span).  The
perceptron learns suffix/context generalizations (-s after a noun -> VBZ,
-ed -> VBD, ...) from the fixture and splits those spans correctly —
span RECALL of true multi-entity sentences goes up (pinned by test).
"""

from __future__ import annotations

from collections import defaultdict

from .masking import RESET_POS_TAG

# ---------------------------------------------------------------------------
# Hand-tagged training fixture (PTB tagset).  Original sentences written for
# this engine: generic English + the biomedical/news register the corpus
# adapter produces.  Format: word/TAG, space-separated.
# ---------------------------------------------------------------------------
_TRAIN = """
The/DT drug/NN treats/VBZ the/DT disease/NN ./.
A/DT patient/NN received/VBD a/DT vaccine/NN yesterday/NN ./.
The/DT doctor/NN diagnosed/VBD a/DT rare/JJ disorder/NN ./.
Researchers/NNS identified/VBD a/DT new/JJ gene/NN ./.
The/DT inhibitor/NN blocks/VBZ the/DT enzyme/NN ./.
The/DT study/NN shows/VBZ a/DT strong/JJ effect/NN ./.
Scientists/NNS reported/VBD the/DT results/NNS today/NN ./.
The/DT compound/NN causes/VBZ severe/JJ reactions/NNS ./.
The/DT team/NN developed/VBD a/DT novel/JJ therapy/NN ./.
The/DT virus/NN infects/VBZ human/JJ cells/NNS ./.
The/DT protein/NN binds/VBZ the/DT receptor/NN ./.
A/DT trial/NN evaluated/VBD the/DT treatment/NN ./.
The/DT hospital/NN admitted/VBD many/JJ patients/NNS ./.
The/DT tumor/NN responded/VBD to/TO the/DT therapy/NN ./.
The/DT bacteria/NNS resist/VBP common/JJ antibiotics/NNS ./.
The/DT committee/NN approved/VBD the/DT proposal/NN ./.
The/DT company/NN announced/VBD a/DT merger/NN ./.
The/DT president/NN visited/VBD the/DT university/NN ./.
The/DT author/NN wrote/VBD a/DT famous/JJ novel/NN ./.
The/DT singer/NN performed/VBD a/DT popular/JJ song/NN ./.
The/DT team/NN won/VBD the/DT championship/NN ./.
The/DT engineer/NN designed/VBD a/DT faster/JJR engine/NN ./.
The/DT city/NN built/VBD a/DT new/JJ bridge/NN ./.
The/DT river/NN flows/VBZ through/IN the/DT valley/NN ./.
The/DT market/NN opened/VBD higher/JJR this/DT morning/NN ./.
The/DT report/NN describes/VBZ the/DT findings/NNS clearly/RB ./.
The/DT professor/NN teaches/VBZ organic/JJ chemistry/NN ./.
The/DT student/NN studies/VBZ molecular/JJ biology/NN ./.
The/DT committee/NN discussed/VBD the/DT budget/NN briefly/RB ./.
The/DT drug/NN reduces/VBZ blood/NN pressure/NN quickly/RB ./.
The/DT enzyme/NN converts/VBZ sugar/NN into/IN energy/NN ./.
The/DT gene/NN encodes/VBZ a/DT membrane/NN protein/NN ./.
The/DT patient/NN suffers/VBZ from/IN chronic/JJ pain/NN ./.
The/DT treatment/NN improves/VBZ survival/NN significantly/RB ./.
The/DT sample/NN contains/VBZ many/JJ impurities/NNS ./.
The/DT machine/NN measures/VBZ oxygen/NN levels/NNS ./.
The/DT nurse/NN monitors/VBZ the/DT heart/NN rate/NN ./.
The/DT lab/NN tested/VBD hundreds/NNS of/IN samples/NNS ./.
The/DT findings/NNS suggest/VBP a/DT genetic/JJ cause/NN ./.
The/DT results/NNS indicate/VBP rapid/JJ progression/NN ./.
The/DT cells/NNS divide/VBP every/DT few/JJ hours/NNS ./.
The/DT molecules/NNS interact/VBP with/IN the/DT surface/NN ./.
The/DT doctors/NNS recommend/VBP early/JJ screening/NN ./.
The/DT patients/NNS take/VBP the/DT medication/NN daily/RB ./.
Mutations/NNS disrupt/VBP normal/JJ development/NN ./.
Antibодies/NNS target/VBP the/DT spike/NN protein/NN ./.
He/PRP works/VBZ at/IN a/DT research/NN institute/NN ./.
She/PRP lives/VBZ in/IN a/DT small/JJ town/NN ./.
They/PRP moved/VBD to/TO another/DT country/NN ./.
We/PRP observed/VBD a/DT significant/JJ change/NN ./.
It/PRP remains/VBZ an/DT open/JJ question/NN ./.
He/PRP was/VBD diagnosed/VBN with/IN leukemia/NN ./.
The/DT disease/NN was/VBD first/RB described/VBN in/IN 1880/CD ./.
The/DT drug/NN is/VBZ approved/VBN for/IN adults/NNS ./.
The/DT therapy/NN has/VBZ shown/VBN promising/JJ results/NNS ./.
The/DT patients/NNS have/VBP developed/VBN resistance/NN ./.
The/DT study/NN will/MD continue/VB next/JJ year/NN ./.
The/DT board/NN may/MD approve/VB the/DT plan/NN ./.
The/DT drug/NN can/MD cause/VB mild/JJ nausea/NN ./.
The/DT team/NN must/MD verify/VB the/DT data/NNS ./.
Walking/VBG improves/VBZ cardiovascular/JJ health/NN ./.
The/DT growing/VBG tumor/NN pressed/VBD on/IN the/DT nerve/NN ./.
Smoking/VBG causes/VBZ lung/NN cancer/NN ./.
The/DT rising/VBG costs/NNS worry/VBP many/JJ hospitals/NNS ./.
The/DT very/RB old/JJ bridge/NN collapsed/VBD suddenly/RB ./.
The/DT extremely/RB rare/JJ mutation/NN appeared/VBD twice/RB ./.
A/DT quite/RB large/JJ cohort/NN enrolled/VBD early/RB ./.
The/DT trial/NN enrolled/VBD 500/CD patients/NNS in/IN 2020/CD ./.
Two/CD doses/NNS protect/VBP against/IN infection/NN ./.
The/DT first/JJ phase/NN lasted/VBD three/CD months/NNS ./.
John/NNP visited/VBD Boston/NNP last/JJ week/NN ./.
Mary/NNP studied/VBD medicine/NN at/IN Harvard/NNP ./.
Pfizer/NNP launched/VBD the/DT product/NN in/IN Europe/NNP ./.
Einstein/NNP developed/VBD the/DT theory/NN of/IN relativity/NN ./.
Paris/NNP attracts/VBZ millions/NNS of/IN visitors/NNS ./.
The/DT mayor/NN of/IN Chicago/NNP spoke/VBD briefly/RB ./.
Tesla/NNP builds/VBZ electric/JJ cars/NNS in/IN Texas/NNP ./.
Amazon/NNP ships/VBZ packages/NNS worldwide/RB ./.
The/DT CEO/NN of/IN Microsoft/NNP resigned/VBD unexpectedly/RB ./.
Tokyo/NNP hosted/VBD the/DT games/NNS in/IN 2021/CD ./.
The/DT quick/JJ brown/JJ fox/NN jumps/VBZ over/IN the/DT lazy/JJ dog/NN ./.
The/DT government/NN raised/VBD taxes/NNS and/CC cut/VBD spending/NN ./.
The/DT cat/NN sat/VBD on/IN the/DT mat/NN and/CC purred/VBD softly/RB ./.
The/DT storm/NN destroyed/VBD houses/NNS but/CC spared/VBD the/DT school/NN ./.
The/DT book/NN explains/VBZ the/DT method/NN and/CC gives/VBZ examples/NNS ./.
The/DT committee/NN met/VBD ,/, discussed/VBD the/DT issue/NN ,/, and/CC voted/VBD ./.
The/DT drug/NN ,/, approved/VBN in/IN 2019/CD ,/, treats/VBZ arthritis/NN ./.
The/DT data/NNS show/VBP that/IN the/DT vaccine/NN works/VBZ well/RB ./.
Researchers/NNS believe/VBP that/IN the/DT gene/NN matters/VBZ ./.
The/DT paper/NN argues/VBZ that/IN screening/NN saves/VBZ lives/NNS ./.
The/DT kinase/NN phosphorylates/VBZ the/DT substrate/NN ./.
Imatinib/NNP inhibits/VBZ the/DT kinase/NN effectively/RB ./.
Aspirin/NNP reduces/VBZ fever/NN and/CC pain/NN ./.
The/DT antibody/NN neutralizes/VBZ the/DT virus/NN ./.
Chemotherapy/NN shrinks/VBZ most/JJS tumors/NNS ./.
The/DT biopsy/NN revealed/VBD malignant/JJ cells/NNS ./.
The/DT scan/NN detected/VBD a/DT small/JJ lesion/NN ./.
Surgery/NN removed/VBD the/DT entire/JJ tumor/NN ./.
The/DT infection/NN spread/VBD to/TO the/DT lungs/NNS ./.
The/DT fever/NN subsided/VBD after/IN two/CD days/NNS ./.
The/DT mesylate/NN salt/NN dissolves/VBZ quickly/RB ./.
Calcium/NN phosphate/NN strengthens/VBZ growing/VBG bones/NNS ./.
Sodium/NN acetate/NN buffers/VBZ the/DT solution/NN ./.
The/DT sulfate/NN compound/NN precipitated/VBD slowly/RB ./.
The/DT nitrate/NN level/NN exceeded/VBD the/DT limit/NN ./.
Leo/NNP Tolstoy/NNP wrote/VBD long/JJ novels/NNS ./.
Marie/NNP Curie/NNP discovered/VBD radium/NN ./.
Isaac/NNP Newton/NNP described/VBD gravity/NN ./.
Charles/NNP Darwin/NNP studied/VBD finches/NNS ./.
Elon/NNP Musk/NNP founded/VBD several/JJ companies/NNS ./.
Lou/NNP Gehrig/NNP played/VBD professional/JJ baseball/NN ./.
The/DT nurse/NN talked/VBD about/IN the/DT new/JJ schedule/NN ./.
The/DT paper/NN is/VBZ about/IN gene/NN expression/NN ./.
New/NNP York/NNP attracts/VBZ ambitious/JJ people/NNS ./.
San/NNP Francisco/NNP sits/VBZ on/IN a/DT peninsula/NN ./.
The/DT disease/NN is/VBZ diagnosed/VBN by/IN a/DT blood/NN test/NN ./.
The/DT report/NN was/VBD written/VBN by/IN the/DT committee/NN ./.
Cats/NNS and/CC dogs/NNS are/VBP loyal/JJ pets/NNS ./.
The/DT patients/NNS are/VBP stable/JJ now/RB ./.
Arthritis/NN causes/VBZ joint/NN inflammation/NN ./.
Tonsillitis/NN and/CC pharyngitis/NN are/VBP common/JJ infections/NNS ./.
The/DT infarction/NN damaged/VBD the/DT heart/NN muscle/NN ./.
Fibrosis/NN stiffens/VBZ the/DT lung/NN tissue/NN ./.
The/DT medication/NN is/VBZ used/VBN to/TO treat/VB hypertension/NN ./.
Doctors/NNS use/VBP antibiotics/NNS to/TO treat/VB infections/NNS ./.
The/DT operation/NN lasted/VBD four/CD hours/NNS ./.
The/DT reaction/NN produced/VBD heat/NN and/CC light/NN ./.
The/DT decision/NN surprised/VBD the/DT investors/NNS ./.
An/DT engineer/NN designs/VBZ reliable/JJ systems/NNS ./.
The/DT engineer/NN repaired/VBD an/DT old/JJ engine/NN ./.
Her/PRP$ arthritis/NN improved/VBD slowly/RB ./.
His/PRP$ condition/NN remained/VBD stable/JJ ./.
The/DT lung/NN infection/NN worsened/VBD overnight/RB ./.
The/DT brain/NN infarction/NN caused/VBD sudden/JJ weakness/NN ./.
The/DT anemia/NN was/VBD secondary/JJ to/TO chemotherapy/NN ./.
Ipilimumab/NNP blocks/VBZ immune/JJ checkpoints/NNS ./.
Rituximab/NNP depletes/VBZ immune/JJ cells/NNS ./.
Leonardo/NNP Da/NNP Vinci/NNP painted/VBD detailed/JJ portraits/NNS ./.
Vincent/NNP Van/NNP Gogh/NNP painted/VBD bright/JJ sunflowers/NNS ./.
Hormones/NNS regulate/VBP growth/NN and/CC metabolism/NN ./.
The/DT birds/NNS flew/VBD south/RB in/IN winter/NN ./.
"""
# (one stray non-ASCII token above is intentional noise — real corpora have
# them and the tagger must not crash on unseen unicode)


def _parse_train() -> list[list[tuple[str, str]]]:
    sents = []
    for line in _TRAIN.strip().split("\n"):
        pairs = []
        for tok in line.split():
            word, _, tag = tok.rpartition("/")
            if word:
                pairs.append((word, tag))
        if pairs:
            sents.append(pairs)
    return sents


class AveragedPerceptronPOS:
    """Greedy left-to-right averaged-perceptron POS tagger.

    Standard formulation: per token, a sparse binary feature vector (word
    identity, lowercase form, 1-4 char suffixes, prefix, shape flags, the
    two previous PREDICTED tags, neighboring words); weights updated
    perceptron-style on training errors and AVERAGED over all updates for
    the final model (the averaging is what makes 100 sentences usable).
    Deterministic: fixed epoch order, ties broken by tag name.
    """

    START = ("-S1-", "-S2-")

    def __init__(self) -> None:
        self.weights: dict[str, dict[str, float]] = {}
        self.tagdict: dict[str, str] = {}
        self.classes: set[str] = set()

    # -- features ---------------------------------------------------------
    @staticmethod
    def _normalize(word: str) -> str:
        if word.isdigit():
            return "!DIGIT"
        if any(c.isdigit() for c in word):
            return "!HASDIGIT"
        return word.lower()

    def _features(self, i, word, context, prev, prev2):
        f = defaultdict(int)

        def add(name, *args):
            f[" ".join((name,) + args)] += 1

        w = self._normalize(word)
        add("bias")
        add("i word", w)
        add("i suf3", w[-3:])
        add("i suf2", w[-2:])
        add("i suf1", w[-1:])
        add("i pre1", w[:1])
        add("i-1 tag", prev)
        add("i-2 tag", prev2)
        add("i-1 tag i word", prev, w)
        add("i-1 word", context[i - 1])
        add("i-1 suf3", context[i - 1][-3:])
        add("i+1 word", context[i + 1])
        add("i+1 suf3", context[i + 1][-3:])
        if word[:1].isupper():
            add("i title")
            if i == 2:  # first real token (context is padded by 2)
                add("i title first")
        if word.isupper() and len(word) > 1:
            add("i allcaps")
        return f

    def _predict(self, features) -> str:
        scores: dict[str, float] = defaultdict(float)
        for feat, value in features.items():
            if feat not in self.weights or value == 0:
                continue
            for tag, weight in self.weights[feat].items():
                scores[tag] += value * weight
        # ties broken by tag name for determinism
        return max(sorted(self.classes), key=lambda t: scores[t])

    # -- training ---------------------------------------------------------
    def train(self, sentences, n_iter: int = 8) -> None:
        self.classes = {t for s in sentences for _, t in s}
        # unambiguous frequent words go straight to a tag dictionary
        counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in sentences:
            for w, t in s:
                counts[self._normalize(w)][t] += 1
        for w, tags in counts.items():
            tag, n = max(sorted(tags.items()), key=lambda kv: kv[1])
            # the fixture is small and curated: any UNAMBIGUOUS word goes to
            # the tag dictionary (ambiguous ones stay with the perceptron)
            if n / sum(tags.values()) >= 0.97:
                self.tagdict[w] = tag

        totals: dict[tuple[str, str], float] = defaultdict(float)
        tstamps: dict[tuple[str, str], int] = defaultdict(int)
        instances = 0

        def upd(feat, tag, delta):
            nonlocal instances
            key = (feat, tag)
            w = self.weights.setdefault(feat, {})
            totals[key] += (instances - tstamps[key]) * w.get(tag, 0.0)
            tstamps[key] = instances
            w[tag] = w.get(tag, 0.0) + delta

        import numpy as _np

        order = list(range(len(sentences)))
        for epoch in range(n_iter):
            # deterministic seeded shuffle — fixed order makes the greedy
            # perceptron cycle on small corpora
            _np.random.RandomState(epoch).shuffle(order)
            for si in order:
                sent = sentences[si]
                context = ["-PAD-", "-PAD-"] + [
                    self._normalize(w) for w, _ in sent
                ] + ["-PAD-", "-PAD-"]
                prev, prev2 = self.START
                for i, (word, gold) in enumerate(sent):
                    guess = self.tagdict.get(self._normalize(word))
                    if guess is None:
                        feats = self._features(i + 2, word, context, prev, prev2)
                        instances += 1
                        guess = self._predict(feats)
                        if guess != gold:
                            for feat in feats:
                                upd(feat, gold, 1.0)
                                upd(feat, guess, -1.0)
                        guess = gold  # teacher forcing for context tags
                    prev2, prev = prev, guess
        # average
        for feat, tags in self.weights.items():
            for tag in tags:
                key = (feat, tag)
                totals[key] += (instances - tstamps[key]) * tags[tag]
                avg = totals[key] / max(instances, 1)
                tags[tag] = avg

    # -- inference --------------------------------------------------------
    def tag(self, words: list[str]) -> list[str]:
        context = ["-PAD-", "-PAD-"] + [self._normalize(w) for w in words] + [
            "-PAD-",
            "-PAD-",
        ]
        prev, prev2 = self.START
        out = []
        for i, word in enumerate(words):
            tag = self.tagdict.get(self._normalize(word))
            if tag is None:
                feats = self._features(i + 2, word, context, prev, prev2)
                tag = self._predict(feats)
            out.append(tag)
            prev2, prev = prev, tag
        return out


_MODEL: AveragedPerceptronPOS | None = None


def get_model() -> AveragedPerceptronPOS:
    """Train-once-per-process model accessor (inside a Ray actor this runs
    in ``__init__``, the once-per-actor stateful-stage contract)."""
    global _MODEL
    if _MODEL is None:
        m = AveragedPerceptronPOS()
        m.train(_parse_train())
        _MODEL = m
    return _MODEL


def perceptron_pos_terms(sentence: str) -> list[tuple[str, str]]:
    """``pos_backend`` adapter: unmarked sentence -> (word, PTB tag) pairs.
    Punctuation-only tokens keep RESET (they can never open a span), all
    other tokens carry the model's tag — downstream masking only tests
    membership in the noun set, so real verb/adjective tags flow through
    untouched."""
    words = sentence.split()
    if not words:
        return []
    tags = get_model().tag(words)
    out = []
    for w, t in zip(words, tags):
        if not any(c.isalnum() for c in w):
            out.append((w, RESET_POS_TAG))
        else:
            out.append((w, t))
    return out
