//! "Shape" tests: the qualitative findings of the paper must hold on the
//! synthetic corpus. These are the properties the corpus substitution
//! is built to preserve (see the `urlid-corpus` crate docs) — who wins,
//! in which regime, and where the confusions are — not the paper's
//! absolute numbers.

use urlid::eval::{domain_memorization_curve, evaluate_classifier_set};
use urlid::prelude::*;

fn corpus() -> PaperCorpus {
    PaperCorpus::generate(777, CorpusScale::tiny())
}

/// Table 4: the ccTLD baseline has high precision but poor recall, and the
/// recall is much worse for English/Spanish than for German/Italian.
#[test]
fn cctld_baseline_has_high_precision_low_recall() {
    let corpus = corpus();
    let set = train_classifier_set(
        &corpus.combined_training(),
        &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTld),
    );
    let result = evaluate_classifier_set(&set, &corpus.odp.test);
    for lang in ALL_LANGUAGES {
        let m = result.metrics(lang);
        assert!(
            m.precision > 0.85,
            "{lang}: ccTLD precision {:.2}",
            m.precision
        );
    }
    let en = result.metrics(Language::English).recall;
    let ge = result.metrics(Language::German).recall;
    let it = result.metrics(Language::Italian).recall;
    let sp = result.metrics(Language::Spanish).recall;
    assert!(
        ge > 0.6 && it > 0.4,
        "German {ge:.2} / Italian {it:.2} recall should be decent"
    );
    assert!(
        en < 0.3 && sp < 0.5,
        "English {en:.2} / Spanish {sp:.2} recall should be poor"
    );
}

/// Table 5 / ccTLD+: counting .com/.org as English rescues English recall
/// but not the other languages'.
#[test]
fn cctld_plus_only_helps_english_recall() {
    let corpus = corpus();
    let training = corpus.combined_training();
    let test = &corpus.web_crawl;
    let plain = evaluate_classifier_set(
        &train_classifier_set(
            &training,
            &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTld),
        ),
        test,
    );
    let plus = evaluate_classifier_set(
        &train_classifier_set(
            &training,
            &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTldPlus),
        ),
        test,
    );
    assert!(
        plus.metrics(Language::English).recall > plain.metrics(Language::English).recall + 0.3,
        "ccTLD+ must lift English recall substantially"
    );
    for lang in [
        Language::German,
        Language::French,
        Language::Spanish,
        Language::Italian,
    ] {
        assert!(
            (plus.metrics(lang).recall - plain.metrics(lang).recall).abs() < 1e-9,
            "{lang}: ccTLD+ must not change non-English recall"
        );
    }
    // ...at the cost of English precision.
    assert!(plus.metrics(Language::English).precision < plain.metrics(Language::English).precision);
}

/// Section 5: the learning algorithms comfortably beat both baselines, and
/// SER is the easiest test set.
#[test]
fn learned_classifiers_beat_baselines_and_ser_is_easiest() {
    let corpus = corpus();
    let training = corpus.combined_training();
    let nb = train_classifier_set(&training, &TrainingConfig::paper_best());
    let cctld = train_classifier_set(
        &training,
        &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTldPlus),
    );
    let mut nb_f = Vec::new();
    for (name, test) in corpus.test_sets() {
        let nb_result = evaluate_classifier_set(&nb, test);
        let cctld_result = evaluate_classifier_set(&cctld, test);
        assert!(
            nb_result.mean_f_measure() > cctld_result.mean_f_measure(),
            "{name}: NB {:.3} vs ccTLD+ {:.3}",
            nb_result.mean_f_measure(),
            cctld_result.mean_f_measure()
        );
        nb_f.push((name, nb_result.mean_f_measure()));
    }
    let ser = nb_f.iter().find(|(n, _)| *n == "SER").unwrap().1;
    let odp = nb_f.iter().find(|(n, _)| *n == "ODP").unwrap().1;
    assert!(
        ser >= odp,
        "SER ({ser:.3}) should be at least as easy as ODP ({odp:.3})"
    );
}

/// Table 6 / Table 3: the dominant confusion is "non-English URL labelled
/// English", for machines and humans alike.
#[test]
fn dominant_confusion_is_with_english() {
    let corpus = corpus();
    let training = corpus.combined_training();
    let nb = train_classifier_set(&training, &TrainingConfig::paper_best());
    let result = evaluate_classifier_set(&nb, &corpus.web_crawl);
    for lang in [Language::German, Language::French, Language::Spanish] {
        let with_english = result.confusion.confusion_with_english(lang);
        let mut max_other: f64 = 0.0;
        for other in ALL_LANGUAGES {
            if other != lang && other != Language::English {
                max_other = max_other.max(result.confusion.percentage(lang, other) / 100.0);
            }
        }
        assert!(
            with_english >= max_other,
            "{lang}: confusion with English ({with_english:.2}) should dominate ({max_other:.2})"
        );
    }
}

/// Section 6 / Figure 2: with very little training data trigram features
/// are at least as good as word features; with the full training set word
/// features win (or tie).
#[test]
fn trigrams_win_low_data_words_win_high_data() {
    let corpus = PaperCorpus::generate(4242, CorpusScale::small());
    let training = corpus.combined_training();
    let test = &corpus.odp.test;
    let f_of = |feature_set: FeatureSetKind, fraction: f64| {
        let reduced = training.take_fraction(fraction);
        let set = train_classifier_set(
            &reduced,
            &TrainingConfig::new(feature_set, Algorithm::NaiveBayes),
        );
        evaluate_classifier_set(&set, test).mean_f_measure()
    };
    let words_low = f_of(FeatureSetKind::Words, 0.01);
    let tri_low = f_of(FeatureSetKind::Trigrams, 0.01);
    let words_full = f_of(FeatureSetKind::Words, 1.0);
    let tri_full = f_of(FeatureSetKind::Trigrams, 1.0);
    assert!(
        tri_low >= words_low - 0.03,
        "low data: trigrams ({tri_low:.3}) should not lose to words ({words_low:.3})"
    );
    assert!(
        words_full >= tri_full - 0.03,
        "full data: words ({words_full:.3}) should not lose to trigrams ({tri_full:.3})"
    );
    assert!(words_full > words_low, "more data must help word features");
}

/// Figure 3: the fraction of test URLs with a training-set domain grows
/// with the training fraction and is substantial at 100 %.
#[test]
fn domain_memorization_curve_shape() {
    let corpus = PaperCorpus::generate(99, CorpusScale::small());
    let training = corpus.combined_training();
    let curve = domain_memorization_curve(&training, &corpus.web_crawl, &[0.01, 0.1, 1.0]);
    assert!(curve[0].1 <= curve[2].1);
    assert!(
        (25.0..=90.0).contains(&curve[2].1),
        "full-training domain coverage of the crawl should be substantial but partial: {:.1}%",
        curve[2].1
    );
}

/// Section 5.7: Italian is the easiest language, English the hardest (or
/// at least: Italian clearly beats English).
#[test]
fn italian_is_easier_than_english() {
    let corpus = corpus();
    let training = corpus.combined_training();
    let nb = train_classifier_set(&training, &TrainingConfig::paper_best());
    let mut it_sum = 0.0;
    let mut en_sum = 0.0;
    for (_, test) in corpus.test_sets() {
        let r = evaluate_classifier_set(&nb, test);
        it_sum += r.metrics(Language::Italian).f_measure;
        en_sum += r.metrics(Language::English).f_measure;
    }
    assert!(
        it_sum >= en_sum - 0.05,
        "Italian ({:.3}) should not be harder than English ({:.3})",
        it_sum / 3.0,
        en_sum / 3.0
    );
}
