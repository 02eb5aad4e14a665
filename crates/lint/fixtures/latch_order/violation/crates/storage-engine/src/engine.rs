//! Seeded-violation fixture: two deadlock shapes the pass must catch.
//!
//! 1. A *direct* inversion: `forward` locks a then b, `backward` locks b
//!    then a — a 2-cycle in the acquisition-order graph.
//! 2. An *inter-procedural* inversion: `outer` holds c and calls `helper`,
//!    whose callee `deep` locks d; `other` holds d and (via `relay`) locks
//!    c.  The c → d → c cycle only exists through the call graph.
//! 3. A re-acquisition: `reentrant` locks a while already holding it, and
//!    `reentrant_via_call` holds a while calling `relock`, which locks it.

struct Shared {
    a: Mutex<Alpha>,
    b: Mutex<Beta>,
    c: Mutex<Gamma>,
    d: Mutex<Delta>,
}

impl Shared {
    fn forward(&self) {
        let mut a = self.a.lock();
        let mut b = self.b.lock();
        a.step();
        b.step();
    }

    fn backward(&self) {
        let mut b = self.b.lock();
        let mut a = self.a.lock();
        b.step();
        a.step();
    }

    fn outer(&self) {
        let mut c = self.c.lock();
        c.step();
        self.helper();
    }

    fn helper(&self) {
        self.deep();
    }

    fn deep(&self) {
        let mut d = self.d.lock();
        d.step();
    }

    fn other(&self) {
        let mut d = self.d.lock();
        d.step();
        self.relay();
    }

    fn relay(&self) {
        let mut c = self.c.lock();
        c.step();
    }

    fn reentrant(&self) {
        let a = self.a.lock();
        let again = self.a.lock();
        a.step();
        again.step();
    }

    fn reentrant_via_call(&self) {
        let a = self.a.lock();
        a.step();
        self.relock();
    }

    fn relock(&self) {
        let a = self.a.lock();
        a.step();
    }
}
