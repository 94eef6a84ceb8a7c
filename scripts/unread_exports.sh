#!/usr/bin/env bash
# Inventory of code nothing runs, in two sections:
#
#   1. exported names: for each library crate's `pub use` names, the ones no
#      program code outside the defining crate and outside `crates/lint`
#      mentions;
#   2. functions: each `pub`/`pub(..)` fn whose name appears in no program
#      text except its own definition(s), in any crate. Private fns are
#      left to the compiler's dead-code lint; trait-impl methods carry no
#      visibility and are not listed.
#
#   scripts/unread_exports.sh
#
# Program code is every `crates/*/src/**.rs` up to its `#[cfg(test)] mod`,
# minus `#[cfg(test)] impl` blocks, comment lines and other crates' `pub use`
# lists. The frozen
# benchmark package (`crates/bench/src/bin/benchmark/`) is program code for
# every crate, `riot-bench` included. Test code (`tests/`, `examples/`,
# `crates/*/tests/`, `tests.rs` files, `#[cfg(test)]` modules and impl
# blocks) is not a reader: the report names it beside each unread export, so
# a name read only by a test or an example shows up with that file. A match
# is a whole-word match, so a common name can hide behind an unrelated word —
# the list is a lower bound. Report only: it prints the inventory and exits
# 0. scripts/check.sh runs it (output discarded) so that a report that no
# longer runs fails the gate; what it lists fails nothing.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

exec perl -e '
use strict;
use warnings;
use File::Find;

my $bench = "crates/bench/src/bin/benchmark";
my (@files, %text);
find({ no_chdir => 1, wanted => sub {
    if (-d $_ && m{/(target|results|fixtures|\.git)$}) { $File::Find::prune = 1; return; }
    push @files, $_ if -f $_ && /\.rs$/;
} }, grep { -d } qw(crates tests examples));
@files = sort @files;

# Split each file into (program, test) text.
for my $f (@files) {
    open my $fh, "<", $f or die "$f: $!";
    my ($prog, $test, $in_test, $cfg_test, $test_impl) = ("", "", 0, 0, undef);
    $in_test = 1 if $f =~ m{^(tests|examples)/|^crates/[^/]+/tests/|/tests\.rs$};
    while (my $line = <$fh>) {
        $in_test = 1 if $cfg_test && $line =~ /^\s*(pub\s+)?mod\b/;
        # A `#[cfg(test)] impl` block is test code up to the brace that
        # closes it at the indentation it opened with.
        $test_impl = $1 if $cfg_test && !defined $test_impl && $line =~ /^(\s*)impl\b/;
        $cfg_test = $line =~ /^\s*#\[cfg\(test\)\]/;
        next if $line =~ m{^\s*//};
        if ($in_test || defined $test_impl) { $test .= $line } else { $prog .= $line }
        $test_impl = undef if defined $test_impl && $line =~ /^\Q$test_impl\E\}/;
    }
    $prog =~ s/\bpub use\b[^;]*;//gs if $f =~ m{/src/lib\.rs$};
    $text{$f} = [$prog, $test];
}

# The crate a file belongs to, for the "outside the defining crate" rule.
sub owner {
    my ($f) = @_;
    return "benchmark" if index($f, "$bench/") == 0;
    return $1 if $f =~ m{^crates/([^/]+)/};
    return "root";
}

my $total = 0;
for my $lib (grep { m{^crates/[^/]+/src/lib\.rs$} } @files) {
    my ($crate) = $lib =~ m{^crates/([^/]+)/};
    next if $crate eq "lint";
    open my $fh, "<", $lib or die "$lib: $!";
    my $src = do { local $/; <$fh> };
    $src =~ s{^\s*//.*$}{}mg;
    my @names;
    while ($src =~ /\bpub use\s+([^;]+);/g) {
        my $list = $1;
        $list = $1 if $list =~ /\{(.*)\}/s;
        for my $item (split /,/, $list) {
            $item =~ s/^.*\bas\s+(\w+)\s*$/$1/s;
            $item =~ s/\s+//g;
            next if $item eq "" || $item =~ /\*$/;
            $item =~ s/.*:://;
            push @names, $item;
        }
    }
    my @rows;
    for my $name (@names) {
        my (@prog, @test);
        for my $f (@files) {
            my $o = owner($f);
            next if $o eq $crate || $o eq "lint";
            my ($p, $t) = @{ $text{$f} };
            push @prog, $f if $p =~ /\b\Q$name\E\b/;
            push @test, $f if $t =~ /\b\Q$name\E\b/;
        }
        next if @prog;
        push @rows, sprintf("  %-24s %s", $name, @test ? join(", ", @test) : "(no reader)");
    }
    next unless @rows;
    $total += @rows;
    print "riot-$crate\n", join("\n", @rows), "\n";
}
print "$total exported name(s) with no program reader outside their crate\n";

# Functions: a `pub` fn is unread when every whole-word mention of its name
# in program text is one of its definitions.
my (%defs, %mentions);
for my $f (@files) {
    my $p = $text{$f}[0];
    my $prev = "";
    for my $l (split /\n/, $p) {
        # A `#[cfg(test)]` fn is test code already.
        push @{ $defs{$1} }, $f
            if $l =~ /^\s*pub(?:\([^)]*\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)/
            && $prev !~ /^\s*#\[cfg\(test\)\]/;
        $prev = $l;
    }
    $mentions{$_}++ for $p =~ /\b(\w+)\b/g;
}
my %all_defs;
for my $f (@files) {
    $all_defs{$_}++ for $text{$f}[0] =~ /\bfn\s+(\w+)/g;
}
my @fn_rows;
for my $name (sort keys %defs) {
    next if $mentions{$name} > $all_defs{$name};
    my %seen;
    my @where = grep { !$seen{$_}++ } @{ $defs{$name} };
    my @test = grep { $text{$_}[1] =~ /\b\Q$name\E\b/ } @files;
    push @fn_rows, sprintf("  %-24s %s\n  %-24s %s", $name, join(", ", @where), "",
        @test ? "read by: " . join(", ", @test) : "(no reader)");
}
print "\nfunctions\n", join("\n", @fn_rows), "\n" if @fn_rows;
print scalar(@fn_rows), " pub fn name(s) mentioned by no program text but their definitions\n";
'
