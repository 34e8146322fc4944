package llir

// NewKeyer returns MergeFunctions' structural key function, or with shape
// set FMSA's (Const immediates erased). One keyer serves many functions in
// turn, as it does inside the passes.
func NewKeyer(shape bool) func(*Func) string {
	k := &funcKeyer{eraseConsts: shape}
	return func(f *Func) string { return string(k.key(f)) }
}
