//! Regeneration of every table and figure of the paper.
//!
//! Every public `table*` / `figure*` / `ablation*` function returns the
//! report as a `String`; the `experiments` binary prints them. No
//! reference run is committed: the reports are a pure function of the
//! corpus seed and `URLID_SCALE`, so any run can be regenerated.

use std::collections::HashMap;
use urlid::classifiers::{
    DecisionTree, DecisionTreeConfig, NaiveBayes, NaiveBayesConfig, VectorClassifier,
};
use urlid::eval::report::{f_measure_grid, metrics_table, url_vs_content_row};
use urlid::eval::{domain_memorization_curve, evaluate_annotations, evaluate_classifier_set};
use urlid::features::{CustomFeatureExtractor, TrigramFeatureExtractor};
use urlid::prelude::*;

/// The experiments that can be run, in paper order.
pub const EXPERIMENT_NAMES: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "figure1",
    "figure2",
    "figure3",
    "ablations",
];

/// The corpus scale, read from `URLID_SCALE` (default 0.02 ≈ laptop scale).
pub fn corpus_scale() -> CorpusScale {
    std::env::var("URLID_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(CorpusScale)
        .unwrap_or_else(CorpusScale::small)
}

/// Shared state across experiments: the generated corpus, the combined
/// training set and a cache of trained classifier sets so that tables
/// which reuse the same configuration do not retrain.
pub struct ExperimentContext {
    /// The synthetic three-data-set corpus.
    pub corpus: PaperCorpus,
    /// ODP-train + SER-train, the paper's actual training set.
    pub training: Dataset,
    seed: u64,
    cache: HashMap<(FeatureSetKind, Algorithm), LanguageClassifierSet>,
}

impl ExperimentContext {
    /// Generate the corpus and prepare the context.
    pub fn new(seed: u64, scale: CorpusScale) -> Self {
        let corpus = PaperCorpus::generate(seed, scale);
        let training = corpus.combined_training();
        Self {
            corpus,
            training,
            seed,
            cache: HashMap::new(),
        }
    }

    /// Default context at the configured scale.
    pub fn default_context() -> Self {
        Self::new(2008, corpus_scale())
    }

    /// Train (or fetch from cache) the classifier set for a configuration.
    pub fn set(
        &mut self,
        feature_set: FeatureSetKind,
        algorithm: Algorithm,
    ) -> &LanguageClassifierSet {
        let key = (feature_set, algorithm);
        if !self.cache.contains_key(&key) {
            let config = TrainingConfig::new(feature_set, algorithm).with_seed(self.seed);
            let set = train_classifier_set(&self.training, &config);
            self.cache.insert(key, set);
        }
        &self.cache[&key]
    }

    /// Evaluate a cached configuration on one of the three test sets.
    pub fn evaluate(
        &mut self,
        feature_set: FeatureSetKind,
        algorithm: Algorithm,
        test_index: usize,
    ) -> EvaluationResult {
        // Split borrows: clone the test set reference data we need first.
        let test = match test_index {
            0 => self.corpus.odp.test.clone(),
            1 => self.corpus.ser.test.clone(),
            _ => self.corpus.web_crawl.clone(),
        };
        let set = self.set(feature_set, algorithm);
        evaluate_classifier_set(set, &test)
    }
}

/// Dispatch an experiment by name.
pub fn run_experiment(name: &str, ctx: &mut ExperimentContext) -> Option<String> {
    let out = match name {
        "table1" => table1(ctx),
        "table2" | "table3" | "table2_3" => table2_3(ctx),
        "table4" | "table5" | "table4_5" => table4_5(ctx),
        "table6" => table6(ctx),
        "table7" => table7(ctx),
        "table8" => table8(ctx),
        "table9" => table9(ctx),
        "table10" => table10(ctx),
        "figure1" => figure1(ctx),
        "figure2" => figure2(ctx),
        "figure3" => figure3(ctx),
        "ablations" => ablations(ctx),
        _ => return None,
    };
    Some(out)
}

// ---------------------------------------------------------------- Table 1

/// Table 1: data-set sizes.
pub fn table1(ctx: &mut ExperimentContext) -> String {
    let mut out = String::from("== Table 1: data sets (synthetic substitute, scaled) ==\n");
    out.push_str("data set      language  training  test\n");
    let rows: [(&str, Option<&Dataset>, &Dataset); 3] = [
        ("ODP", Some(&ctx.corpus.odp.train), &ctx.corpus.odp.test),
        ("SER", Some(&ctx.corpus.ser.train), &ctx.corpus.ser.test),
        ("Web crawl", None, &ctx.corpus.web_crawl),
    ];
    for (name, train, test) in rows {
        for lang in ALL_LANGUAGES {
            out.push_str(&format!(
                "{:<13} {:<9} {:>8} {:>6}\n",
                name,
                lang.name(),
                train.map(|t| t.count_language(lang)).unwrap_or(0),
                test.count_language(lang)
            ));
        }
    }
    out
}

// ------------------------------------------------------------ Tables 2, 3

/// Tables 2 and 3: simulated human performance and confusion on the crawl
/// test set.
pub fn table2_3(ctx: &mut ExperimentContext) -> String {
    let test = &ctx.corpus.web_crawl;
    let urls: Vec<String> = test.urls.iter().map(|u| u.url.clone()).collect();
    let ann1 = SimulatedHuman::evaluator_one(1).annotate_all(&urls);
    let ann2 = SimulatedHuman::evaluator_two(2).annotate_all(&urls);
    let r1 = evaluate_annotations(&ann1, test);
    let r2 = evaluate_annotations(&ann2, test);

    // Average the two evaluators as the paper does for Table 3.
    let mut merged = r1.confusion.clone();
    merged.merge(&r2.confusion);

    let mut out = String::from("== Table 2: human performance on the web crawl test set ==\n");
    out.push_str(&metrics_table("evaluator 1 (simulated)", &r1));
    out.push_str(&metrics_table("evaluator 2 (simulated)", &r2));
    out.push_str(&format!(
        "average F over evaluators: {:.2} (paper: .75)\n\n",
        (r1.mean_f_measure() + r2.mean_f_measure()) / 2.0
    ));
    out.push_str("== Table 3: human confusion matrix (both evaluators, % of row language) ==\n");
    out.push_str(&merged.render());
    out
}

// ------------------------------------------------------------ Tables 4, 5

/// Tables 4 and 5: the ccTLD / ccTLD+ baselines on all three test sets and
/// the baseline confusion matrix on the crawl set.
pub fn table4_5(ctx: &mut ExperimentContext) -> String {
    let mut out = String::from("== Table 4: ccTLD baseline ==\n");
    for (i, name) in ["ODP", "SER", "WC"].iter().enumerate() {
        let plain = ctx.evaluate(FeatureSetKind::Words, Algorithm::CcTld, i);
        let plus = ctx.evaluate(FeatureSetKind::Words, Algorithm::CcTldPlus, i);
        out.push_str(&metrics_table(&format!("{name}, ccTLD"), &plain));
        out.push_str(&format!(
            "{name}, English with ccTLD+ (.com/.org as English): P={:.2} R={:.2} F={:.2}\n\n",
            plus.metrics(Language::English).precision,
            plus.metrics(Language::English).recall,
            plus.metrics(Language::English).f_measure
        ));
    }
    out.push_str("== Table 5: ccTLD confusion matrix on the crawl test set ==\n");
    let plain = ctx.evaluate(FeatureSetKind::Words, Algorithm::CcTld, 2);
    out.push_str(&plain.confusion.render());
    out.push_str("\n(ccTLD+ English row)\n");
    let plus = ctx.evaluate(FeatureSetKind::Words, Algorithm::CcTldPlus, 2);
    out.push_str(&plus.confusion.render());
    out
}

// ---------------------------------------------------------------- Table 6

/// Table 6: confusion matrix of Naive Bayes + word features on the crawl
/// test set.
pub fn table6(ctx: &mut ExperimentContext) -> String {
    let result = ctx.evaluate(FeatureSetKind::Words, Algorithm::NaiveBayes, 2);
    let mut out = String::from(
        "== Table 6: confusion matrix, Naive Bayes + word features, crawl test set ==\n",
    );
    out.push_str(&result.confusion.render());
    out.push_str(&format!(
        "mean F on crawl: {:.3}\n",
        result.mean_f_measure()
    ));
    out
}

// ---------------------------------------------------------------- Table 7

/// Table 7: the full feature-set × algorithm × test-set × language grid.
pub fn table7(ctx: &mut ExperimentContext) -> String {
    let mut out = String::from(
        "== Table 7: all feature set / algorithm combinations (P R p(-|-) F per cell) ==\n",
    );
    let feature_sets = [
        FeatureSetKind::Words,
        FeatureSetKind::Trigrams,
        FeatureSetKind::Custom,
    ];
    for (t, test_name) in ["ODP", "SER", "WC"].iter().enumerate() {
        out.push_str(&format!("\n--- test set: {test_name} ---\n"));
        out.push_str("lang  alg |        words        |       trigrams      |       custom\n");
        for lang in ALL_LANGUAGES {
            for algorithm in [
                Algorithm::NaiveBayes,
                Algorithm::RelativeEntropy,
                Algorithm::MaxEnt,
                Algorithm::DecisionTree,
            ] {
                let mut row = format!("{:<4} {:>4} |", lang.paper_abbrev(), algorithm.abbrev());
                for feature_set in feature_sets {
                    // The paper computes decision trees only for the
                    // custom features.
                    if algorithm == Algorithm::DecisionTree && feature_set != FeatureSetKind::Custom
                    {
                        row.push_str("        -            |");
                        continue;
                    }
                    let result = ctx.evaluate(feature_set, algorithm, t);
                    row.push_str(&format!(" {} |", result.metrics(lang).paper_row()));
                }
                out.push_str(&row);
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------- Table 8

/// Table 8: F-measure of Naive Bayes + word features per language and test
/// set.
pub fn table8(ctx: &mut ExperimentContext) -> String {
    let mut columns = Vec::new();
    for t in 0..3 {
        let result = ctx.evaluate(FeatureSetKind::Words, Algorithm::NaiveBayes, t);
        let mut col = [0.0; 5];
        for lang in ALL_LANGUAGES {
            col[lang.index()] = result.metrics(lang).f_measure;
        }
        columns.push(col);
    }
    f_measure_grid(
        "== Table 8: F-measure, Naive Bayes with word features ==",
        &["ODP", "SER", "WC"],
        &columns,
    )
}

// ---------------------------------------------------------------- Table 9

/// Table 9: F-measure of the best per-language classifier combinations.
pub fn table9(ctx: &mut ExperimentContext) -> String {
    let combined = urlid::recipes::train_best_combination(&ctx.training, ctx.seed);
    let mut columns = Vec::new();
    let tests = [
        ctx.corpus.odp.test.clone(),
        ctx.corpus.ser.test.clone(),
        ctx.corpus.web_crawl.clone(),
    ];
    for test in &tests {
        let result = evaluate_classifier_set(&combined, test);
        let mut col = [0.0; 5];
        for lang in ALL_LANGUAGES {
            col[lang.index()] = result.metrics(lang).f_measure;
        }
        columns.push(col);
    }
    f_measure_grid(
        "== Table 9: F-measure, best per-language classifier combinations ==",
        &["ODP", "SER", "WC"],
        &columns,
    )
}

// --------------------------------------------------------------- Table 10

/// Table 10: training on URLs only vs URLs + page content (ODP only).
pub fn table10(ctx: &mut ExperimentContext) -> String {
    let mut out = String::from("== Table 10: URL-only vs URL+content training (ODP) ==\n");
    let mut content_train = ctx.corpus.odp.train.clone();
    attach_content(&mut content_train, &mut ContentGenerator::with_seed(77));
    let test = ctx.corpus.odp.test.clone();

    for (alg, iterations) in [(Algorithm::NaiveBayes, 40usize), (Algorithm::MaxEnt, 40)] {
        // URL-only classifiers are trained on the ODP training set alone,
        // exactly as in Section 7.
        let url_cfg = TrainingConfig::new(FeatureSetKind::Words, alg)
            .with_seed(ctx.seed)
            .with_maxent_iterations(iterations);
        let url_set = train_classifier_set(&ctx.corpus.odp.train, &url_cfg);
        let url_result = evaluate_classifier_set(&url_set, &test);

        // Content training: ME gets only 2 iterations, as in the paper.
        let content_iters = if alg == Algorithm::MaxEnt {
            2
        } else {
            iterations
        };
        let content_cfg = TrainingConfig::new(FeatureSetKind::Words, alg)
            .with_seed(ctx.seed)
            .with_maxent_iterations(content_iters)
            .with_training_content();
        let content_set = train_classifier_set(&content_train, &content_cfg);
        let content_result = evaluate_classifier_set(&content_set, &test);

        out.push_str(&format!("\nalgorithm: {alg}\n"));
        for lang in ALL_LANGUAGES {
            out.push_str(&url_vs_content_row(
                lang,
                url_result.metrics(lang).f_measure,
                content_result.metrics(lang).f_measure,
            ));
            out.push('\n');
        }
        out.push_str(&format!(
            "average    URL: {:.2}   URL+content: {:.2}\n",
            url_result.mean_f_measure(),
            content_result.mean_f_measure()
        ));
    }
    out
}

// --------------------------------------------------------------- Figure 1

/// Figure 1: a pruned decision tree for German on the custom features.
pub fn figure1(ctx: &mut ExperimentContext) -> String {
    let mut extractor = CustomFeatureExtractor::default();
    extractor.fit(&ctx.training.urls);
    let positives: Vec<_> = ctx
        .training
        .urls
        .iter()
        .filter(|u| u.language == Language::German)
        .map(|u| extractor.transform(&u.url))
        .collect();
    let negatives: Vec<_> = ctx
        .training
        .urls
        .iter()
        .filter(|u| u.language != Language::German)
        .take(positives.len())
        .map(|u| extractor.transform(&u.url))
        .collect();
    let tree = DecisionTree::train(
        &positives,
        &negatives,
        DecisionTreeConfig {
            max_depth: 4,
            ..DecisionTreeConfig::for_dim(extractor.dim())
        },
    );
    let mut out =
        String::from("== Figure 1: pruned decision tree for German (custom features) ==\n");
    out.push_str(&tree.render(&|f| {
        extractor
            .feature_name(f as u32)
            .unwrap_or_else(|| format!("f{f}"))
    }));
    out.push_str(&format!(
        "\n(depth {}, {} nodes; compare the paper's German-TLD / trained-dictionary tests)\n",
        tree.depth(),
        tree.node_count()
    ));
    out
}

// --------------------------------------------------------------- Figure 2

/// Figure 2: F-measure on the crawl test set as a function of the amount
/// of training data, for representative feature-set/algorithm
/// combinations plus the baselines and the simulated human.
pub fn figure2(ctx: &mut ExperimentContext) -> String {
    let fractions = [0.001, 0.01, 0.1, 1.0];
    let test = ctx.corpus.web_crawl.clone();
    let training = ctx.training.clone();
    let series: Vec<(&str, FeatureSetKind, Algorithm)> = vec![
        ("WF NB", FeatureSetKind::Words, Algorithm::NaiveBayes),
        ("WF RE", FeatureSetKind::Words, Algorithm::RelativeEntropy),
        ("WF ME", FeatureSetKind::Words, Algorithm::MaxEnt),
        ("TF NB", FeatureSetKind::Trigrams, Algorithm::NaiveBayes),
        (
            "TF RE",
            FeatureSetKind::Trigrams,
            Algorithm::RelativeEntropy,
        ),
        ("CF NB", FeatureSetKind::Custom, Algorithm::NaiveBayes),
        ("CF DT", FeatureSetKind::Custom, Algorithm::DecisionTree),
        ("ccTLD", FeatureSetKind::Words, Algorithm::CcTld),
        ("ccTLD+", FeatureSetKind::Words, Algorithm::CcTldPlus),
    ];
    let mut out = String::from(
        "== Figure 2: F-measure on the crawl test set vs amount of training data ==\n",
    );
    out.push_str(&format!("{:<8}", "series"));
    for f in fractions {
        out.push_str(&format!(" {:>7}", format!("{}%", f * 100.0)));
    }
    out.push('\n');
    for (label, feature_set, algorithm) in series {
        out.push_str(&format!("{label:<8}"));
        for fraction in fractions {
            let reduced = training.take_fraction(fraction);
            let set = train_classifier_set(
                &reduced,
                &TrainingConfig::new(feature_set, algorithm).with_seed(ctx.seed),
            );
            let f = evaluate_classifier_set(&set, &test).mean_f_measure();
            out.push_str(&format!(" {f:>7.3}"));
        }
        out.push('\n');
    }
    // Human line (flat: humans do not train).
    let urls: Vec<String> = test.urls.iter().map(|u| u.url.clone()).collect();
    let human = evaluate_annotations(&SimulatedHuman::evaluator_one(1).annotate_all(&urls), &test)
        .mean_f_measure();
    out.push_str(&format!(
        "{:<8} {human:>7.3} {human:>7.3} {human:>7.3} {human:>7.3}\n",
        "human"
    ));
    out.push_str(
        "\n(expected shape: trigram features lead at small fractions, word features win at 100%,\n\
          custom features need the most data, the TLD baselines and the human line are flat)\n",
    );
    out
}

// --------------------------------------------------------------- Figure 3

/// Figure 3: percentage of test URLs whose registered domain occurs in the
/// training data, as a function of the training fraction.
pub fn figure3(ctx: &mut ExperimentContext) -> String {
    let fractions = [0.001, 0.01, 0.1, 1.0];
    let mut out =
        String::from("== Figure 3: % of test URLs with a domain seen in the training data ==\n");
    out.push_str(&format!("{:<12}", "test set"));
    for f in fractions {
        out.push_str(&format!(" {:>7}", format!("{}%", f * 100.0)));
    }
    out.push('\n');
    let tests = [
        ("Web Crawl", ctx.corpus.web_crawl.clone()),
        ("ODP", ctx.corpus.odp.test.clone()),
        ("SER", ctx.corpus.ser.test.clone()),
    ];
    for (name, test) in tests {
        let curve = domain_memorization_curve(&ctx.training, &test, &fractions);
        out.push_str(&format!("{name:<12}"));
        for (_, pct) in curve {
            out.push_str(&format!(" {pct:>6.1}%"));
        }
        out.push('\n');
    }
    out
}

// -------------------------------------------------------------- Ablations

/// Ablations of the reproduction's design choices: trigram scope
/// (within tokens vs the raw URL), custom features (selected 15 vs full
/// 74), negative sampling (balanced vs all negatives), Maximum Entropy
/// iterations (2 vs 40), why the paper dropped k-NN, and the paper's
/// preliminary experiment pitting relative entropy against a rank-order
/// statistic and a character Markov model.
pub fn ablations(ctx: &mut ExperimentContext) -> String {
    let mut out = String::from("== Ablations ==\n");
    let test = ctx.corpus.odp.test.clone();

    // (1) Trigram scope: within tokens (paper) vs raw URL (future work).
    {
        let nb_for = |extractor: &TrigramFeatureExtractor, training: &Dataset| {
            LanguageClassifierSet::build(|lang| {
                let positives: Vec<_> = training
                    .urls
                    .iter()
                    .filter(|u| u.language == lang)
                    .map(|u| extractor.transform(&u.url))
                    .collect();
                let negatives: Vec<_> = training
                    .urls
                    .iter()
                    .filter(|u| u.language != lang)
                    .take(positives.len())
                    .map(|u| extractor.transform(&u.url))
                    .collect();
                let model = NaiveBayes::train(
                    &positives,
                    &negatives,
                    NaiveBayesConfig::for_dim(extractor.dim()),
                );
                struct C(TrigramFeatureExtractor, NaiveBayes);
                impl UrlClassifier for C {
                    fn classify_url(&self, url: &str) -> bool {
                        self.1.classify(&self.0.transform(url))
                    }
                }
                Box::new(C(extractor.clone(), model))
            })
        };
        let mut within = TrigramFeatureExtractor::default();
        within.fit(&ctx.training.urls);
        let mut raw = TrigramFeatureExtractor::raw_url_scope();
        raw.fit(&ctx.training.urls);
        let f_within =
            evaluate_classifier_set(&nb_for(&within, &ctx.training), &test).mean_f_measure();
        let f_raw = evaluate_classifier_set(&nb_for(&raw, &ctx.training), &test).mean_f_measure();
        out.push_str(&format!(
            "1. trigram scope (NB, ODP test): within-token F={f_within:.3} vs raw-URL F={f_raw:.3}\n"
        ));
    }

    // (2) Custom features: selected 15 vs full 74 (decision tree).
    {
        let f15 = {
            let cfg = TrainingConfig::new(FeatureSetKind::Custom, Algorithm::DecisionTree)
                .with_seed(ctx.seed);
            evaluate_classifier_set(&train_classifier_set(&ctx.training, &cfg), &test)
                .mean_f_measure()
        };
        let f74 = {
            let cfg = TrainingConfig::new(FeatureSetKind::Custom, Algorithm::DecisionTree)
                .with_seed(ctx.seed)
                .with_full_custom_features();
            evaluate_classifier_set(&train_classifier_set(&ctx.training, &cfg), &test)
                .mean_f_measure()
        };
        out.push_str(&format!(
            "2. custom features (DT, ODP test): selected-15 F={f15:.3} vs full-74 F={f74:.3} (paper: difference <= .03)\n"
        ));
    }

    // (3) Negative sampling: balanced (paper) vs all negatives.
    {
        let balanced = TrainingConfig::paper_best().with_seed(ctx.seed);
        let mut all_neg = TrainingConfig::paper_best().with_seed(ctx.seed);
        all_neg.negative_ratio = 4.0;
        let f_bal = evaluate_classifier_set(&train_classifier_set(&ctx.training, &balanced), &test)
            .mean_f_measure();
        let r_bal = evaluate_classifier_set(&train_classifier_set(&ctx.training, &balanced), &test)
            .macro_metrics()
            .mean_recall();
        let set_all = train_classifier_set(&ctx.training, &all_neg);
        let res_all = evaluate_classifier_set(&set_all, &test);
        out.push_str(&format!(
            "3. negative sampling (NB words, ODP test): balanced F={f_bal:.3} R={r_bal:.3} vs all-negatives F={:.3} R={:.3} (all-negatives is more conservative)\n",
            res_all.mean_f_measure(),
            res_all.macro_metrics().mean_recall()
        ));
    }

    // (4) Maximum-entropy iterations (Section 7 used 2 vs 40).
    {
        let mut row = String::from("4. MaxEnt iterations (words, ODP test): ");
        for iters in [2usize, 10, 40] {
            let cfg = TrainingConfig::new(FeatureSetKind::Words, Algorithm::MaxEnt)
                .with_seed(ctx.seed)
                .with_maxent_iterations(iters);
            let f = evaluate_classifier_set(&train_classifier_set(&ctx.training, &cfg), &test)
                .mean_f_measure();
            row.push_str(&format!("{iters} iters F={f:.3}  "));
        }
        out.push_str(&row);
        out.push('\n');
    }

    // (6) The paper's preliminary experiment: relative entropy vs the
    //     Cavnar–Trenkle rank-order statistic vs a character Markov model
    //     (Section 2: relative entropy "performed best in preliminary
    //     experiments").
    {
        use urlid::classifiers::{
            MarkovClassifier, MarkovConfig, RankOrder, RankOrderConfig, RelativeEntropy,
            RelativeEntropyConfig,
        };
        let mut trigrams = TrigramFeatureExtractor::default();
        trigrams.fit(&ctx.training.urls);
        let build_set = |which: &str| -> LanguageClassifierSet {
            LanguageClassifierSet::build(|lang| {
                let pos_urls: Vec<String> = ctx
                    .training
                    .urls
                    .iter()
                    .filter(|u| u.language == lang)
                    .map(|u| u.url.clone())
                    .collect();
                let neg_urls: Vec<String> = ctx
                    .training
                    .urls
                    .iter()
                    .filter(|u| u.language != lang)
                    .take(pos_urls.len())
                    .map(|u| u.url.clone())
                    .collect();
                match which {
                    "markov" => Box::new(MarkovClassifier::train(
                        &pos_urls,
                        &neg_urls,
                        MarkovConfig::default(),
                    )),
                    _ => {
                        let positives: Vec<_> =
                            pos_urls.iter().map(|u| trigrams.transform(u)).collect();
                        let negatives: Vec<_> =
                            neg_urls.iter().map(|u| trigrams.transform(u)).collect();
                        struct C<M: VectorClassifier>(TrigramFeatureExtractor, M);
                        impl<M: VectorClassifier> UrlClassifier for C<M> {
                            fn classify_url(&self, url: &str) -> bool {
                                self.1.classify(&self.0.transform(url))
                            }
                        }
                        if which == "rank-order" {
                            Box::new(C(
                                trigrams.clone(),
                                RankOrder::train(
                                    &positives,
                                    &negatives,
                                    RankOrderConfig::default(),
                                ),
                            ))
                        } else {
                            Box::new(C(
                                trigrams.clone(),
                                RelativeEntropy::train(
                                    &positives,
                                    &negatives,
                                    RelativeEntropyConfig::for_dim(trigrams.dim()),
                                ),
                            ))
                        }
                    }
                }
            })
        };
        let mut row =
            String::from("6. preliminary n-gram comparison (trigram features, ODP test): ");
        for which in ["relative-entropy", "rank-order", "markov"] {
            let f = evaluate_classifier_set(&build_set(which), &test).mean_f_measure();
            row.push_str(&format!("{which} F={f:.3}  "));
        }
        out.push_str(&row);
        out.push('\n');
    }

    // (5) Why the paper dropped k-NN.
    {
        let knn_cfg = TrainingConfig::new(FeatureSetKind::Words, Algorithm::KNearestNeighbors)
            .with_seed(ctx.seed);
        // k-NN is O(train × test); evaluate on a reduced training set.
        let reduced = ctx.training.take_fraction(0.05_f64.min(1.0));
        let f_knn = evaluate_classifier_set(&train_classifier_set(&reduced, &knn_cfg), &test)
            .mean_f_measure();
        let f_nb = evaluate_classifier_set(
            &train_classifier_set(&reduced, &TrainingConfig::paper_best().with_seed(ctx.seed)),
            &test,
        )
        .mean_f_measure();
        out.push_str(&format!(
            "5. k-NN vs NB on the same (5%) training subset (ODP test): kNN F={f_knn:.3} vs NB F={f_nb:.3}\n"
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::new(1, CorpusScale::tiny())
    }

    #[test]
    fn experiment_names_all_dispatch() {
        let mut ctx = tiny_ctx();
        for name in ["table1", "figure3"] {
            assert!(run_experiment(name, &mut ctx).is_some(), "{name}");
        }
        assert!(run_experiment("not-an-experiment", &mut ctx).is_none());
        assert_eq!(EXPERIMENT_NAMES.len(), 14);
    }

    #[test]
    fn table1_lists_all_sets_and_languages() {
        let mut ctx = tiny_ctx();
        let t = table1(&mut ctx);
        assert!(t.contains("ODP") && t.contains("SER") && t.contains("Web crawl"));
        assert!(t.contains("Italian"));
    }

    #[test]
    fn cheap_tables_render() {
        let mut ctx = tiny_ctx();
        let t2 = table2_3(&mut ctx);
        assert!(t2.contains("Table 2") && t2.contains("Table 3"));
        let t4 = table4_5(&mut ctx);
        assert!(t4.contains("Table 4") && t4.contains("Table 5"));
        let t8 = table8(&mut ctx);
        assert!(t8.contains("ODP") && t8.contains("average"));
        let f3 = figure3(&mut ctx);
        assert!(f3.contains("Web Crawl"));
        let f1 = figure1(&mut ctx);
        assert!(f1.contains("POSITIVE") || f1.contains("NEGATIVE"));
    }

    #[test]
    fn context_caches_trained_sets() {
        let mut ctx = tiny_ctx();
        let _ = ctx.evaluate(FeatureSetKind::Words, Algorithm::NaiveBayes, 0);
        assert_eq!(ctx.cache.len(), 1);
        let _ = ctx.evaluate(FeatureSetKind::Words, Algorithm::NaiveBayes, 1);
        assert_eq!(ctx.cache.len(), 1, "second evaluation reuses the cache");
    }

    #[test]
    fn corpus_scale_env_parsing() {
        // Default (no env var in tests unless set by the harness).
        let s = corpus_scale();
        assert!(s.0 > 0.0);
    }
}
