"""shadowprobe: training-set property inference against ML classifiers.

Train shadow classifiers on data with and without a hidden statistical
property, encode each trained model's internals as feature vectors, and
fit a decision-tree meta-classifier that tells whether an unseen
classifier's training set carried the property.
"""
