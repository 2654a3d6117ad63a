// Package ignorefix is a framework fixture for the suppression directive:
// the test analyzer reports at every function, and only the functions
// without a matching, justified directive may survive Run.
package ignorefix

func A() {}

//slltlint:ignore testrule the directive form
func B() {}

//lint:ignore testrule the retired spelling must not suppress
func C() {}

//slltlint:ignore otherrule a different analyzer's directive must not suppress
func D() {}

//slltlint:ignore otherrule,testrule comma-separated name lists apply to each
func E() {}

//slltlint:ignore testrule
func F() {}
