# Sourced by scripts/check.sh and scripts/goldens.sh.
#
# named run|bench|fuzz PATTERN PKGS [FLAGS...] is `go test -run PATTERN
# PKGS FLAGS`, `go test -run=NONE -bench PATTERN PKGS FLAGS` or `go test
# -run='^$' -fuzz PATTERN PKGS FLAGS`, after checking that every
# |-alternative of PATTERN names a test, benchmark or fuzz target of PKGS (a
# space-separated package list): go test exits 0 when a pattern matches
# nothing ("no tests to run", or for -bench and -fuzz no word at all), so a
# renamed or deleted test would turn its gate vacuous.
named() {
	kind="$1" pattern="$2" pkgs="$3"
	shift 3
	listed="$(go test -list "$pattern" $pkgs)"
	for name in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$listed" | grep -q "^$name"; then
			echo "named: '$name' names no test, benchmark or fuzz target in $pkgs" >&2
			exit 1
		fi
	done
	# FLAGS go after the packages: go test hands an unknown flag such as
	# -update, and every argument after it, to the test binary.
	case "$kind" in
	run) go test -run "$pattern" $pkgs "$@" ;;
	bench) go test -run=NONE -bench "$pattern" $pkgs "$@" ;;
	fuzz) go test -run='^$' -fuzz "$pattern" $pkgs "$@" ;;
	esac
}
