package cryptox

import (
	"testing"

	"github.com/bftcup/bftcup/internal/model"
)

func TestGenerateKeysAndVerify(t *testing.T) {
	ids := []model.ID{1, 2, 3}
	signers, reg, err := GenerateKeys(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello")
	sig := signers[1].Sign(msg)
	if !reg.Verify(1, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if reg.Verify(2, msg, sig) {
		t.Fatal("signature attributed to the wrong signer")
	}
	if reg.Verify(1, []byte("tampered"), sig) {
		t.Fatal("signature over different message accepted")
	}
	if reg.Verify(99, msg, sig) {
		t.Fatal("unknown signer accepted")
	}
	if _, ok := reg.pubs[3]; !ok {
		t.Fatal("registry lacks signer 3's key")
	}
	if _, ok := reg.pubs[99]; ok {
		t.Fatal("registry holds a key for unknown signer 99")
	}
}

func TestGenerateKeysDeterministic(t *testing.T) {
	ids := []model.ID{1, 2}
	s1, _, err := GenerateKeys(7, ids)
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := GenerateKeys(7, ids)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	if !r2.Verify(1, msg, s1[1].Sign(msg)) {
		t.Fatal("same seed should produce the same keys")
	}
	_ = s2
	// Different seed produces different keys.
	_, r3, err := GenerateKeys(8, ids)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Verify(1, msg, s1[1].Sign(msg)) {
		t.Fatal("different seed should produce different keys")
	}
}

func TestGenerateKeysRejectsBadIDs(t *testing.T) {
	if _, _, err := GenerateKeys(1, []model.ID{model.NilID}); err == nil {
		t.Fatal("NilID should be rejected")
	}
	if _, _, err := GenerateKeys(1, []model.ID{1, 1}); err == nil {
		t.Fatal("duplicate IDs should be rejected")
	}
}

func TestInsecureSuite(t *testing.T) {
	signers, v := InsecureSuite([]model.ID{1, 2})
	msg := []byte("bench")
	sig := signers[1].Sign(msg)
	if !v.Verify(1, msg, sig) {
		t.Fatal("insecure signature rejected")
	}
	if v.Verify(2, msg, sig) {
		t.Fatal("insecure signature accepted for wrong signer")
	}
	if v.Verify(1, []byte("x"), sig) {
		t.Fatal("insecure signature accepted for wrong message")
	}
	if v.Verify(1, msg, sig[:10]) {
		t.Fatal("truncated signature accepted")
	}
	if signers[2].ID() != 2 {
		t.Fatal("signer ID mismatch")
	}
}
