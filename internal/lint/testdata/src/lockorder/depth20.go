package core

import "sync"

// depth20.go: a lock-order cycle whose held side comes from a lock taken
// twenty helpers down (declared callee-first): Kappa.mu is held only
// through the chain when Lambda.mu is acquired.

type Kappa struct{ mu sync.Mutex }
type Lambda struct{ mu sync.Mutex }

func (k *Kappa) holdDeep20() { k.mu.Lock() }
func (k *Kappa) holdDeep19() { k.holdDeep20() }
func (k *Kappa) holdDeep18() { k.holdDeep19() }
func (k *Kappa) holdDeep17() { k.holdDeep18() }
func (k *Kappa) holdDeep16() { k.holdDeep17() }
func (k *Kappa) holdDeep15() { k.holdDeep16() }
func (k *Kappa) holdDeep14() { k.holdDeep15() }
func (k *Kappa) holdDeep13() { k.holdDeep14() }
func (k *Kappa) holdDeep12() { k.holdDeep13() }
func (k *Kappa) holdDeep11() { k.holdDeep12() }
func (k *Kappa) holdDeep10() { k.holdDeep11() }
func (k *Kappa) holdDeep9()  { k.holdDeep10() }
func (k *Kappa) holdDeep8()  { k.holdDeep9() }
func (k *Kappa) holdDeep7()  { k.holdDeep8() }
func (k *Kappa) holdDeep6()  { k.holdDeep7() }
func (k *Kappa) holdDeep5()  { k.holdDeep6() }
func (k *Kappa) holdDeep4()  { k.holdDeep5() }
func (k *Kappa) holdDeep3()  { k.holdDeep4() }
func (k *Kappa) holdDeep2()  { k.holdDeep3() }
func (k *Kappa) holdDeep1()  { k.holdDeep2() }

func cycleKL(k *Kappa, l *Lambda) {
	k.holdDeep1()
	l.mu.Lock() // want lockorder
	l.mu.Unlock()
	k.mu.Unlock()
}

func cycleLK(k *Kappa, l *Lambda) {
	l.mu.Lock()
	k.mu.Lock()
	k.mu.Unlock()
	l.mu.Unlock()
}
